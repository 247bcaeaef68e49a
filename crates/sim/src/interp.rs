//! The IR interpreter: executes functions against simulated memory and a
//! cache hierarchy, producing an execution [`PhaseTrace`] for the timing
//! model.

use crate::memory::{Memory, TypeError, Val};
use crate::timing::{level_index, DemandMiss, PhaseTrace, TimingConfig};
use crate::vm::EngineKind;
use dae_ir::{BinOp, BlockId, CmpOp, FuncId, Function, InstKind, Module, Terminator, UnOp, Value};
use dae_mem::{CoreCaches, HitLevel, SharedLlc};
use std::fmt;

/// Interpreter limits and engine selection.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InterpConfig {
    /// Abort after this many dynamic instructions (infinite-loop guard).
    pub max_steps: u64,
    /// Maximum call depth.
    pub max_call_depth: usize,
    /// Which execution engine runs the code. Both produce identical
    /// results, traces and errors (see `crate::vm`).
    pub engine: EngineKind,
}

impl Default for InterpConfig {
    fn default() -> Self {
        InterpConfig { max_steps: 2_000_000_000, max_call_depth: 64, engine: EngineKind::default() }
    }
}

/// Execution failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InterpError {
    /// The dynamic instruction budget was exhausted.
    StepLimit,
    /// A runtime trap (division by zero, call depth, malformed IR).
    Trap(String),
    /// An operation received a value of the wrong runtime type (a
    /// malformed module that slipped past verification).
    TypeMismatch {
        /// The payload kind the operation required.
        expected: &'static str,
        /// The payload kind actually present.
        got: &'static str,
    },
    /// A load with a void result type.
    LoadVoid,
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::StepLimit => write!(f, "dynamic instruction budget exhausted"),
            InterpError::Trap(m) => write!(f, "trap: {m}"),
            InterpError::TypeMismatch { expected, got } => {
                write!(f, "type mismatch: expected {expected}, got {got}")
            }
            InterpError::LoadVoid => write!(f, "cannot load a void value"),
        }
    }
}

impl std::error::Error for InterpError {}

impl dae_ir::CodedError for InterpError {
    fn code(&self) -> &'static str {
        match self {
            InterpError::StepLimit => "sim.step-limit",
            InterpError::Trap(_) => "sim.trap",
            InterpError::TypeMismatch { .. } => "sim.type-mismatch",
            InterpError::LoadVoid => "sim.load-void",
        }
    }
}

impl From<TypeError> for InterpError {
    fn from(e: TypeError) -> Self {
        match e {
            TypeError::Mismatch { expected, got } => InterpError::TypeMismatch { expected, got },
            TypeError::LoadVoid => InterpError::LoadVoid,
        }
    }
}

/// The cache side of one core, borrowed for the duration of a run.
pub struct CachePort<'c> {
    /// Private L1/L2 of the executing core.
    pub core: &'c mut CoreCaches,
    /// Shared last-level cache.
    pub llc: &'c mut SharedLlc,
}

/// A module plus its simulated memory.
///
/// The machine is the long-lived object: memory persists across task runs,
/// exactly like the heap of the paper's benchmarks persists across tasks.
pub struct Machine<'m> {
    pub(crate) module: &'m Module,
    /// Simulated flat memory holding the globals.
    pub memory: Memory,
    /// Interpreter limits and engine selection.
    pub config: InterpConfig,
    /// Bytecode-engine state: cached lowered programs + reusable frame
    /// stack (untouched when running as [`EngineKind::Tree`]).
    pub(crate) vm: crate::vm::VmState,
}

/// A value plus its miss-dependence taint: `true` when the value derives
/// from a DRAM-missing load (drives the dependent-miss serialisation of the
/// timing model).
pub(crate) type Slot = (Val, bool);

struct Frame<'f> {
    func: &'f Function,
    global_addrs: Vec<u64>,
    args: Vec<Slot>,
    inst_slots: Vec<Option<Slot>>,
    param_slots: Vec<Vec<Slot>>,
}

impl<'m> Machine<'m> {
    /// Creates a machine with freshly initialised memory.
    pub fn new(module: &'m Module) -> Machine<'m> {
        Machine {
            module,
            memory: Memory::for_module(module),
            config: InterpConfig::default(),
            vm: crate::vm::VmState::default(),
        }
    }

    /// The module being executed.
    pub fn module(&self) -> &Module {
        self.module
    }

    /// Runs `func` with `args` (untainted), recording the execution into
    /// `trace` and driving `caches`.
    ///
    /// # Errors
    ///
    /// Returns [`InterpError`] on traps or exhausted budgets.
    pub fn run(
        &mut self,
        func: FuncId,
        args: &[Val],
        caches: &mut CachePort<'_>,
        trace: &mut PhaseTrace,
    ) -> Result<Option<Val>, InterpError> {
        if self.config.engine == EngineKind::Bytecode {
            return self.vm_run(func, args, caches, trace);
        }
        let mut steps_left = self.config.max_steps;
        let slots: Vec<Slot> = args.iter().map(|v| (*v, false)).collect();
        let r = self.run_frame(func, slots, caches, trace, &mut steps_left, 0)?;
        Ok(r.map(|(v, _)| v))
    }

    fn run_frame(
        &mut self,
        func_id: FuncId,
        args: Vec<Slot>,
        caches: &mut CachePort<'_>,
        trace: &mut PhaseTrace,
        steps_left: &mut u64,
        depth: usize,
    ) -> Result<Option<Slot>, InterpError> {
        if depth > self.config.max_call_depth {
            return Err(InterpError::Trap("call depth exceeded".into()));
        }
        let func = self.module.func(func_id);
        if func.params.len() != args.len() {
            return Err(InterpError::Trap(format!(
                "function `{}` expects {} args, got {}",
                func.name,
                func.params.len(),
                args.len()
            )));
        }
        let global_addrs: Vec<u64> = (0..self.module.num_globals())
            .map(|g| self.memory.global_addr(dae_ir::GlobalId(g as u32)))
            .collect();
        let mut frame = Frame {
            func,
            global_addrs,
            args,
            inst_slots: vec![None; func.num_insts()],
            param_slots: (0..func.num_blocks())
                .map(|b| vec![(Val::I(0), false); func.block(BlockId(b as u32)).params.len()])
                .collect(),
        };

        let mut block = func.entry;
        // Scratch for edge arguments, swapped (not reallocated) into the
        // destination's parameter slots on every taken edge.
        let mut incoming: Vec<Slot> = Vec::new();
        loop {
            // Execute the block body.
            for &inst in &func.block(block).insts {
                if *steps_left == 0 {
                    return Err(InterpError::StepLimit);
                }
                *steps_left -= 1;
                self.exec_inst(&mut frame, inst, caches, trace, steps_left, depth)?;
            }
            // Terminator.
            if *steps_left == 0 {
                return Err(InterpError::StepLimit);
            }
            *steps_left -= 1;
            trace.instrs += 1;
            trace.branches += 1;
            let term = func.terminator(block);
            let dest = match term {
                Terminator::Jump(d) => d,
                Terminator::Branch { cond, then_dest, else_dest } => {
                    let (c, _) = eval(&frame, *cond);
                    if c.try_b()? {
                        then_dest
                    } else {
                        else_dest
                    }
                }
                Terminator::Ret(v) => {
                    return Ok(v.map(|v| eval(&frame, v)));
                }
            };
            // Bind edge arguments to destination parameters.
            incoming.clear();
            incoming.extend(dest.args.iter().map(|a| eval(&frame, *a)));
            std::mem::swap(&mut frame.param_slots[dest.block.0 as usize], &mut incoming);
            block = dest.block;
        }
    }

    fn exec_inst(
        &mut self,
        frame: &mut Frame<'_>,
        inst: dae_ir::InstId,
        caches: &mut CachePort<'_>,
        trace: &mut PhaseTrace,
        steps_left: &mut u64,
        depth: usize,
    ) -> Result<(), InterpError> {
        let data = frame.func.inst(inst);
        // x86 addressing-mode folding: `ptradd` (base + offset) and
        // power-of-two scale multiplies fold into the memory operand of the
        // consuming load/store/prefetch — they execute but occupy no issue
        // slot.
        let folded = match &data.kind {
            InstKind::PtrAdd { .. } => true,
            InstKind::Binary { op: BinOp::IMul, lhs, rhs } => {
                let scale = |v: &Value| matches!(v.as_i64(), Some(1) | Some(2) | Some(4) | Some(8));
                scale(lhs) || scale(rhs)
            }
            _ => false,
        };
        if folded {
            trace.addr_ops += 1;
        } else {
            trace.instrs += 1;
        }
        let cfg_extra = TimingConfig::default();
        let result: Option<Slot> = match &data.kind {
            InstKind::Binary { op, lhs, rhs } => {
                let (a, ta) = eval(frame, *lhs);
                let (b, tb) = eval(frame, *rhs);
                let taint = ta || tb;
                let v = exec_binop(*op, a, b)?;
                if op.is_float() {
                    trace.fp_ops += 1;
                }
                match op {
                    BinOp::IDiv | BinOp::IRem => trace.extra_lat_cycles += cfg_extra.idiv_cyc,
                    BinOp::FDiv => trace.extra_lat_cycles += cfg_extra.fdiv_cyc,
                    _ => {}
                }
                Some((v, taint))
            }
            InstKind::Unary { op, operand } => {
                let (a, t) = eval(frame, *operand);
                if matches!(op, UnOp::FSqrt) {
                    trace.fp_ops += 1;
                    trace.extra_lat_cycles += cfg_extra.fsqrt_cyc;
                }
                Some((exec_unop(*op, a)?, t))
            }
            InstKind::Cmp { op, lhs, rhs } => {
                let (a, ta) = eval(frame, *lhs);
                let (b, tb) = eval(frame, *rhs);
                Some((Val::B(exec_cmp(*op, a, b)?), ta || tb))
            }
            InstKind::Select { cond, then_value, else_value } => {
                let (c, tc) = eval(frame, *cond);
                let (v, tv) =
                    if c.try_b()? { eval(frame, *then_value) } else { eval(frame, *else_value) };
                Some((v, tc || tv))
            }
            InstKind::PtrAdd { base, offset } => {
                let (b, tb) = eval(frame, *base);
                let (o, to) = eval(frame, *offset);
                Some((Val::P((b.try_p()? as i64).wrapping_add(o.try_i()?) as u64), tb || to))
            }
            InstKind::Load { addr } => {
                let (a, taint) = eval(frame, *addr);
                let a = a.try_p()?;
                trace.loads += 1;
                let (level, hw_covered) = caches.core.access_demand(caches.llc, a);
                let missed = level == HitLevel::Memory;
                if missed && hw_covered {
                    // The L2 stream prefetcher fetched this line ahead of
                    // use: on-chip latency plus bandwidth, no ROB stall.
                    trace.hw_prefetch_lines += 1;
                } else {
                    trace.demand_hits[level_index(level)] += 1;
                    if missed {
                        trace
                            .demand_misses
                            .push(DemandMiss { instr_idx: trace.instrs, dependent: taint });
                    }
                }
                let v = self.memory.try_read(data.ty, a)?;
                Some((v, missed && !hw_covered))
            }
            InstKind::Store { addr, value } => {
                let (a, _) = eval(frame, *addr);
                let a = a.try_p()?;
                let (v, _) = eval(frame, *value);
                trace.stores += 1;
                let (level, writebacks) = caches.core.access_write(caches.llc, a);
                if level == HitLevel::Memory {
                    trace.store_mem_misses += 1;
                }
                trace.writeback_lines += writebacks;
                self.memory.write(a, v);
                None
            }
            InstKind::Prefetch { addr } => {
                let (a, _) = eval(frame, *addr);
                trace.prefetches += 1;
                let p = a.try_p()?;
                // A prefetch never faults: out-of-range hints are dropped,
                // exactly like `prefetcht0`.
                if (p as usize) < self.memory.size() && p >= 0x1000 {
                    let level = caches.core.access(caches.llc, p);
                    trace.prefetch_hits[level_index(level)] += 1;
                }
                None
            }
            InstKind::Call { callee, args } => {
                let slots: Vec<Slot> = args.iter().map(|a| eval(frame, *a)).collect();
                self.run_frame(*callee, slots, caches, trace, steps_left, depth + 1)?
            }
        };
        if let Some(slot) = result {
            frame.inst_slots[inst.0 as usize] = Some(slot);
        }
        Ok(())
    }
}

fn eval(frame: &Frame<'_>, v: Value) -> Slot {
    match v {
        Value::Inst(id) => frame.inst_slots[id.0 as usize].expect("use before def"),
        Value::BlockParam { block, index } => frame.param_slots[block.0 as usize][index as usize],
        Value::Arg(i) => frame.args[i as usize],
        Value::ConstI64(c) => (Val::I(c), false),
        Value::ConstF64(bits) => (Val::F(f64::from_bits(bits)), false),
        Value::ConstBool(b) => (Val::B(b), false),
        Value::Global(g) => (Val::P(frame.global_addrs[g.0 as usize]), false),
    }
}

#[inline]
pub(crate) fn exec_binop(op: BinOp, a: Val, b: Val) -> Result<Val, InterpError> {
    Ok(match op {
        BinOp::IAdd => Val::I(a.try_i()?.wrapping_add(b.try_i()?)),
        BinOp::ISub => Val::I(a.try_i()?.wrapping_sub(b.try_i()?)),
        BinOp::IMul => Val::I(a.try_i()?.wrapping_mul(b.try_i()?)),
        BinOp::IDiv => {
            let d = b.try_i()?;
            if d == 0 {
                return Err(InterpError::Trap("integer division by zero".into()));
            }
            Val::I(a.try_i()?.wrapping_div(d))
        }
        BinOp::IRem => {
            let d = b.try_i()?;
            if d == 0 {
                return Err(InterpError::Trap("integer remainder by zero".into()));
            }
            Val::I(a.try_i()?.wrapping_rem(d))
        }
        BinOp::And => Val::I(a.try_i()? & b.try_i()?),
        BinOp::Or => Val::I(a.try_i()? | b.try_i()?),
        BinOp::Xor => Val::I(a.try_i()? ^ b.try_i()?),
        BinOp::Shl => Val::I(a.try_i()?.wrapping_shl(b.try_i()? as u32)),
        BinOp::AShr => Val::I(a.try_i()?.wrapping_shr(b.try_i()? as u32)),
        BinOp::FAdd => Val::F(a.try_f()? + b.try_f()?),
        BinOp::FSub => Val::F(a.try_f()? - b.try_f()?),
        BinOp::FMul => Val::F(a.try_f()? * b.try_f()?),
        BinOp::FDiv => Val::F(a.try_f()? / b.try_f()?),
        BinOp::FMin => Val::F(a.try_f()?.min(b.try_f()?)),
        BinOp::FMax => Val::F(a.try_f()?.max(b.try_f()?)),
    })
}

#[inline]
pub(crate) fn exec_unop(op: UnOp, a: Val) -> Result<Val, InterpError> {
    Ok(match op {
        UnOp::INeg => Val::I(a.try_i()?.wrapping_neg()),
        UnOp::FNeg => Val::F(-a.try_f()?),
        UnOp::FSqrt => Val::F(a.try_f()?.sqrt()),
        UnOp::IToF => Val::F(a.try_i()? as f64),
        UnOp::FToI => Val::I(a.try_f()? as i64),
        UnOp::PtrToInt => Val::I(a.try_p()? as i64),
        UnOp::IntToPtr => Val::P(a.try_i()? as u64),
        UnOp::Not => Val::B(!a.try_b()?),
    })
}

#[inline]
pub(crate) fn exec_cmp(op: CmpOp, a: Val, b: Val) -> Result<bool, InterpError> {
    Ok(match (a, b) {
        (Val::I(x), Val::I(y)) => cmp_ord(op, x.cmp(&y)),
        (Val::P(x), Val::P(y)) => cmp_ord(op, x.cmp(&y)),
        (Val::B(x), Val::B(y)) => cmp_ord(op, x.cmp(&y)),
        (Val::F(x), Val::F(y)) => match op {
            CmpOp::Eq => x == y,
            CmpOp::Ne => x != y,
            CmpOp::Lt => x < y,
            CmpOp::Le => x <= y,
            CmpOp::Gt => x > y,
            CmpOp::Ge => x >= y,
        },
        (x, y) => {
            return Err(InterpError::TypeMismatch { expected: x.kind(), got: y.kind() });
        }
    })
}

fn cmp_ord(op: CmpOp, o: std::cmp::Ordering) -> bool {
    use std::cmp::Ordering::*;
    match op {
        CmpOp::Eq => o == Equal,
        CmpOp::Ne => o != Equal,
        CmpOp::Lt => o == Less,
        CmpOp::Le => o != Greater,
        CmpOp::Gt => o == Greater,
        CmpOp::Ge => o != Less,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dae_ir::{FunctionBuilder, Module, Type};
    use dae_mem::HierarchyConfig;

    fn run_task<'a>(
        module: &'a Module,
        name: &str,
        args: &[Val],
    ) -> (Option<Val>, PhaseTrace, Machine<'a>) {
        let cfg = HierarchyConfig::default();
        let mut llc = SharedLlc::new(cfg.llc);
        let mut core = CoreCaches::new(&cfg);
        let mut machine = Machine::new(module);
        let mut trace = PhaseTrace::default();
        let f = module.func_by_name(name).expect("function");
        let r = machine
            .run(f, args, &mut CachePort { core: &mut core, llc: &mut llc }, &mut trace)
            .expect("run ok");
        (r, trace, machine)
    }

    #[test]
    fn computes_loop_sum() {
        let mut m = Module::new();
        let mut b = FunctionBuilder::new("sum", vec![Type::I64], Type::I64);
        let out = b.counted_loop_carried(
            Value::i64(0),
            Value::Arg(0),
            Value::i64(1),
            vec![Value::i64(0)],
            |b, i, c| vec![b.iadd(c[0], i)],
        );
        b.ret(Some(out[0]));
        m.add_function(b.finish());
        let (r, trace, _) = run_task(&m, "sum", &[Val::I(10)]);
        assert_eq!(r, Some(Val::I(45)));
        assert!(trace.instrs > 30);
        assert!(trace.branches >= 11);
    }

    #[test]
    fn loads_and_stores_memory() {
        let mut m = Module::new();
        let g = m.add_global("a", Type::F64, 16);
        let mut b = FunctionBuilder::new("fill", vec![Type::I64], Type::Void);
        b.counted_loop(Value::i64(0), Value::Arg(0), Value::i64(1), |b, i| {
            let addr = b.elem_addr(Value::Global(g), i, Type::F64);
            let fi = b.itof(i);
            b.store(addr, fi);
        });
        b.ret(None);
        m.add_function(b.finish());
        let (_, trace, machine) = run_task(&m, "fill", &[Val::I(16)]);
        assert_eq!(trace.stores, 16);
        let base = machine.memory.global_addr(g);
        assert_eq!(machine.memory.read(Type::F64, base + 8 * 5), Val::F(5.0));
    }

    #[test]
    fn cold_loads_miss_then_hit() {
        let mut m = Module::new();
        let g = m.add_global("a", Type::F64, 64);
        let mut b = FunctionBuilder::new("touch", vec![], Type::Void);
        b.counted_loop(Value::i64(0), Value::i64(64), Value::i64(1), |b, i| {
            let addr = b.elem_addr(Value::Global(g), i, Type::F64);
            let _ = b.load(Type::F64, addr);
        });
        b.ret(None);
        m.add_function(b.finish());
        let (_, trace, _) = run_task(&m, "touch", &[]);
        // 64 f64s = 8 lines: one cold DRAM miss, the remaining 7 sequential
        // lines are covered by the hardware stream prefetcher, 56 L1 hits.
        assert_eq!(trace.demand_hits[3], 1);
        assert_eq!(trace.hw_prefetch_lines, 7);
        assert_eq!(trace.demand_hits[0], 56);
        assert_eq!(trace.demand_misses.len(), 1);
        assert!(
            trace.demand_misses.iter().all(|d| !d.dependent),
            "streaming misses are independent"
        );
    }

    #[test]
    fn pointer_chase_misses_are_dependent() {
        // A linked ring spanning many lines: node i at a[i*16], next pointer
        // stored in the node. Every hop loads the next address.
        let mut m = Module::new();
        let g = m.add_global("nodes", Type::I64, 16 * 64);
        let mut b = FunctionBuilder::new("chase", vec![Type::Ptr, Type::I64], Type::Ptr);
        let out = b.counted_loop_carried(
            Value::i64(0),
            Value::Arg(1),
            Value::i64(1),
            vec![Value::Arg(0)],
            |b, _, c| vec![b.load(Type::Ptr, c[0])],
        );
        b.ret(Some(out[0]));
        m.add_function(b.finish());

        let cfg = HierarchyConfig::default();
        let mut llc = SharedLlc::new(cfg.llc);
        let mut core = CoreCaches::new(&cfg);
        let mut machine = Machine::new(&m);
        // Build the chain in memory: node k -> node (k+7)%64 (stride breaks locality)
        let base = machine.memory.global_addr(g);
        for k in 0..64u64 {
            let next = (k + 7) % 64;
            machine.memory.write_u64(base + k * 128, base + next * 128);
        }
        let mut trace = PhaseTrace::default();
        let f = m.func_by_name("chase").unwrap();
        let r = machine
            .run(
                f,
                &[Val::P(base), Val::I(32)],
                &mut CachePort { core: &mut core, llc: &mut llc },
                &mut trace,
            )
            .unwrap();
        assert!(matches!(r, Some(Val::P(_))));
        // After the first (cold, independent) miss every subsequent miss's
        // address comes from a missing load: dependent.
        let dependent = trace.demand_misses.iter().filter(|d| d.dependent).count();
        assert!(
            dependent >= trace.demand_misses.len() - 1,
            "{dependent} of {}",
            trace.demand_misses.len()
        );
        assert!(trace.demand_misses.len() >= 30);
    }

    #[test]
    fn prefetch_out_of_range_is_dropped() {
        let mut m = Module::new();
        let _g = m.add_global("a", Type::F64, 8);
        let mut b = FunctionBuilder::new("p", vec![], Type::Void);
        let wild = b.unary(UnOp::IntToPtr, Value::i64(0x7fff_ffff));
        b.prefetch(wild);
        b.ret(None);
        m.add_function(b.finish());
        let (_, trace, _) = run_task(&m, "p", &[]);
        assert_eq!(trace.prefetches, 1);
        assert_eq!(trace.prefetch_hits.iter().sum::<u64>(), 0);
    }

    #[test]
    fn division_by_zero_traps() {
        let mut m = Module::new();
        let mut b = FunctionBuilder::new("d", vec![Type::I64], Type::I64);
        let q = b.idiv(1i64, Value::Arg(0));
        b.ret(Some(q));
        m.add_function(b.finish());
        let cfg = HierarchyConfig::default();
        let mut llc = SharedLlc::new(cfg.llc);
        let mut core = CoreCaches::new(&cfg);
        let mut machine = Machine::new(&m);
        let mut trace = PhaseTrace::default();
        let f = m.func_by_name("d").unwrap();
        let e = machine
            .run(f, &[Val::I(0)], &mut CachePort { core: &mut core, llc: &mut llc }, &mut trace)
            .unwrap_err();
        assert!(matches!(e, InterpError::Trap(_)));
    }

    #[test]
    fn malformed_module_errors_instead_of_aborting() {
        // An integer add over a float operand: rejected by the verifier,
        // but a module that skips verification must still fail gracefully.
        let mut m = Module::new();
        let mut b = FunctionBuilder::new("bad", vec![], Type::I64);
        let v = b.iadd(Value::f64(1.5), Value::i64(2));
        b.ret(Some(v));
        m.add_function(b.finish());
        let cfg = HierarchyConfig::default();
        let mut llc = SharedLlc::new(cfg.llc);
        let mut core = CoreCaches::new(&cfg);
        let mut machine = Machine::new(&m);
        let mut trace = PhaseTrace::default();
        let f = m.func_by_name("bad").unwrap();
        let e = machine
            .run(f, &[], &mut CachePort { core: &mut core, llc: &mut llc }, &mut trace)
            .unwrap_err();
        assert_eq!(e, InterpError::TypeMismatch { expected: "i64", got: "f64" });

        // A void-typed load: reported as LoadVoid, not a process abort.
        let mut m2 = Module::new();
        let g = m2.add_global("a", Type::F64, 1);
        let mut b2 = FunctionBuilder::new("voidload", vec![], Type::Void);
        let addr = b2.elem_addr(Value::Global(g), Value::i64(0), Type::F64);
        let _ = b2.load(Type::Void, addr);
        b2.ret(None);
        m2.add_function(b2.finish());
        let mut machine2 = Machine::new(&m2);
        let mut trace2 = PhaseTrace::default();
        let f2 = m2.func_by_name("voidload").unwrap();
        let e2 = machine2
            .run(f2, &[], &mut CachePort { core: &mut core, llc: &mut llc }, &mut trace2)
            .unwrap_err();
        assert_eq!(e2, InterpError::LoadVoid);
    }

    #[test]
    fn step_limit_stops_infinite_loop() {
        let mut m = Module::new();
        let mut b = FunctionBuilder::new("inf", vec![], Type::Void);
        let bb = b.create_block();
        b.jump(bb, vec![]);
        b.switch_to(bb);
        b.jump(bb, vec![]);
        let f = {
            // finish() requires current block terminated — it is (jump).
            b.finish()
        };
        m.add_function(f);
        let cfg = HierarchyConfig::default();
        let mut llc = SharedLlc::new(cfg.llc);
        let mut core = CoreCaches::new(&cfg);
        let mut machine = Machine::new(&m);
        machine.config.max_steps = 10_000;
        let mut trace = PhaseTrace::default();
        let f = m.func_by_name("inf").unwrap();
        let e = machine
            .run(f, &[], &mut CachePort { core: &mut core, llc: &mut llc }, &mut trace)
            .unwrap_err();
        assert_eq!(e, InterpError::StepLimit);
    }

    #[test]
    fn calls_execute_callee() {
        let mut m = Module::new();
        let mut cb = FunctionBuilder::new("sq", vec![Type::I64], Type::I64);
        let v = cb.imul(Value::Arg(0), Value::Arg(0));
        cb.ret(Some(v));
        let callee = m.add_function(cb.finish());
        let mut b = FunctionBuilder::new("top", vec![Type::I64], Type::I64);
        let c = b.call(callee, vec![Value::Arg(0)], Type::I64).unwrap();
        let r = b.iadd(c, 1i64);
        b.ret(Some(r));
        m.add_function(b.finish());
        let (r, _, _) = run_task(&m, "top", &[Val::I(6)]);
        assert_eq!(r, Some(Val::I(37)));
    }

    #[test]
    fn access_then_execute_warms_cache() {
        // The DAE mechanism end to end at the interpreter level.
        let mut m = Module::new();
        let g = m.add_global("a", Type::F64, 512);
        // access: prefetch every line
        let mut ab = FunctionBuilder::new("access", vec![], Type::Void);
        ab.counted_loop(Value::i64(0), Value::i64(64), Value::i64(1), |b, i| {
            let off = b.imul(i, 64i64);
            let p = b.ptr_add(Value::Global(g), off);
            b.prefetch(p);
        });
        ab.ret(None);
        m.add_function(ab.finish());
        // execute: load every element
        let mut eb = FunctionBuilder::new("execute", vec![], Type::Void);
        eb.counted_loop(Value::i64(0), Value::i64(512), Value::i64(1), |b, i| {
            let addr = b.elem_addr(Value::Global(g), i, Type::F64);
            let _ = b.load(Type::F64, addr);
        });
        eb.ret(None);
        m.add_function(eb.finish());

        let cfg = HierarchyConfig::default();
        let mut llc = SharedLlc::new(cfg.llc);
        let mut core = CoreCaches::new(&cfg);
        let mut machine = Machine::new(&m);
        let access = m.func_by_name("access").unwrap();
        let execute = m.func_by_name("execute").unwrap();

        let mut access_trace = PhaseTrace::default();
        machine
            .run(access, &[], &mut CachePort { core: &mut core, llc: &mut llc }, &mut access_trace)
            .unwrap();
        let mut exec_trace = PhaseTrace::default();
        machine
            .run(execute, &[], &mut CachePort { core: &mut core, llc: &mut llc }, &mut exec_trace)
            .unwrap();

        assert_eq!(access_trace.prefetch_hits[3], 64, "cold prefetches go to DRAM");
        assert_eq!(exec_trace.demand_hits[3], 0, "execute phase fully warmed");
        assert_eq!(exec_trace.demand_hits[0], 512);

        // And the timing asymmetry: the access phase is memory-bound, the
        // warmed execute phase is compute-bound.
        let tc = TimingConfig::default();
        assert!(access_trace.memory_bound_fraction(1.6e9, &tc) > 0.5);
        assert!(exec_trace.memory_bound_fraction(3.4e9, &tc) < 0.05);
    }
}
