//! The bytecode execution engine: each [`Function`](dae_ir::Function) is
//! lowered **once** into a flat, pre-resolved program and then executed by
//! a tight dispatch loop — the hot path behind every simulated phase.
//!
//! # Why
//!
//! The tree-walking interpreter in [`crate::interp`] re-resolves operands
//! through an enum match, unwraps an `Option<Slot>` per instruction and
//! heap-allocates a block-argument vector per executed terminator. For
//! workloads running millions to billions of dynamic instructions that
//! constant factor *is* the simulator's cost. Lowering moves all of it to
//! compile time:
//!
//! * operands become dense frame indices (`u32`) resolved at lower time;
//! * constants (including global addresses) are pooled and copied into the
//!   frame once per call;
//! * branch targets are instruction offsets, block arguments are explicit
//!   pre-sequentialised parallel-move lists;
//! * the instruction chains that dominate the corpus's dynamic op pairs
//!   are fused into super-ops — compare+branch, counter-increment+
//!   back-edge, the element address (scale-multiply+`ptradd`, with its
//!   typed load when that comes third) and multiply+add — that keep
//!   per-constituent step accounting intact
//!   ([`LowerSpan::FUSED_OPS`]; `tests/superops.rs` requires each to be
//!   emitted for some corpus function);
//! * the dispatch loop pays per dispatched op, not per simulated step:
//!   one `fuel` register is the whole step account (`instrs` is derived
//!   from it), and operands index a frame slice held in a register.
//!
//! # Identity contract
//!
//! The engine is **observationally identical** to the tree-walker on every
//! verified module and on the graceful-failure cases (type mismatches,
//! division by zero, void loads, step-limit exhaustion, call-depth traps):
//! same [`PhaseTrace`](crate::PhaseTrace) — including per-level hit/miss
//! counters and the [`DemandMiss`](crate::DemandMiss) dependence chain —
//! same [`InterpError`](crate::InterpError) values at the same remaining
//! step counts, and therefore byte-identical `RunReport` JSON. The
//! differential suite in `tests/engine_equivalence.rs` enforces this.
//! The only divergence is deliberately out of contract: reading an
//! instruction result before it was defined (IR the verifier rejects)
//! panics in the tree-walker and yields a zero-initialised slot here.
//!
//! # Caching
//!
//! [`Machine`](crate::Machine) lowers lazily and caches the bytecode per
//! `FuncId`. A machine borrows its module immutably for its whole
//! lifetime, so the cache can never go stale: recompiling a module (e.g.
//! through the driver, which keys artifacts by content-addressed task
//! keys) produces a new module and therefore a new machine with an empty
//! bytecode cache.

mod exec;
mod lower;

pub(crate) use exec::VmState;

/// Which interpreter executes simulated phases. No binary can select
/// [`EngineKind::Tree`]: it is reached only through the library fields
/// that `tests/engine_equivalence.rs` and the benchmark's oracle set.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// The reference tree-walking interpreter (`crate::interp`), kept
    /// as the differential oracle.
    Tree,
    /// The pre-lowered bytecode engine (this module). Observationally
    /// identical to [`EngineKind::Tree`], several times faster.
    #[default]
    Bytecode,
}

/// One function lowered to bytecode: what it cost and what came out.
/// Drained from the machine by [`Machine::take_lower_spans`]
/// (e.g. by `dae-runtime`, which forwards them to `dae-trace`).
///
/// [`Machine::take_lower_spans`]: crate::Machine::take_lower_spans
#[derive(Clone, Debug)]
pub struct LowerSpan {
    /// Name of the lowered function.
    pub func: String,
    /// Bytecode ops emitted.
    pub ops: u32,
    /// Fused super-ops among them.
    pub fused: u32,
    /// `fused` split by super-op, in the order of [`LowerSpan::FUSED_OPS`].
    pub fused_by_op: [u32; LowerSpan::FUSED_OPS.len()],
    /// Host wall-clock spent lowering, in seconds.
    pub wall_s: f64,
}

impl LowerSpan {
    /// The fused super-ops the lowering can emit (`lower::Op` variants).
    pub const FUSED_OPS: [&'static str; 6] =
        ["CmpBr", "AddJump", "ScaleAdd", "ScaleAddLoadF", "ScaleAddLoadI", "MulAdd"];
}
