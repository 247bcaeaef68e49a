//! # dae-analysis — analyses and transforms over `dae-ir`
//!
//! The compiler-infrastructure layer of the CGO 2014 DAE reproduction. It
//! plays the role of LLVM's analysis and transform passes that the paper's
//! access-phase generator builds on:
//!
//! * [`cfg::Cfg`] — successors/predecessors and reverse postorder,
//! * [`dom::DomTree`] — dominators (Cooper–Harvey–Kennedy),
//! * [`loops::LoopForest`] — natural loops, nesting, and
//!   `loops::recognize_counted` for `for`-style loops,
//! * [`scev::ScalarEvolution`] — affine forms of values and addresses (the
//!   ScalarEvolution stand-in used to classify tasks as affine/non-affine),
//! * [`effects`] — side-effect summaries and the paper's safety conditions,
//! * [`transform`] — inlining, DCE (instructions *and* block parameters),
//!   CFG simplification, constant folding, and the [`transform::optimize`]
//!   clean-up pipeline.
//!
//! # Examples
//!
//! Classify the memory instructions of a function as affine or not:
//!
//! ```
//! use dae_analysis::{Cfg, DomTree, LoopForest, ScalarEvolution};
//! use dae_ir::{FunctionBuilder, InstKind, Module, Type, Value};
//!
//! let mut module = Module::new();
//! let a = module.add_global("a", Type::F64, 256);
//! let mut b = FunctionBuilder::new("t", vec![Type::I64], Type::Void);
//! b.counted_loop(Value::i64(0), Value::Arg(0), Value::i64(1), |b, i| {
//!     let addr = b.elem_addr(Value::Global(a), i, Type::F64);
//!     let _ = b.load(Type::F64, addr);
//! });
//! b.ret(None);
//! let func = b.finish();
//!
//! let cfg = Cfg::new(&func);
//! let dom = DomTree::new(&func, &cfg);
//! let forest = LoopForest::new(&func, &cfg, &dom);
//! let mut scev = ScalarEvolution::new(&func, &cfg, &dom, &forest);
//!
//! let mut addrs = vec![];
//! func.for_each_placed_inst(|_, i| {
//!     if let InstKind::Load { addr } = func.inst(i).kind {
//!         addrs.push(addr);
//!     }
//! });
//! let affine_loads = addrs.iter().filter(|a| scev.pointer_of(**a).is_some()).count();
//! assert_eq!(affine_loads, 1);
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub(crate) mod cfg;
pub(crate) mod dom;
pub mod effects;
pub(crate) mod loops;
pub mod scev;
pub(crate) mod ssa_verify;
pub mod transform;

pub use cfg::Cfg;
pub use dom::DomTree;
pub use loops::{CountedLoop, LoopForest, LoopId};
pub use scev::{Affine, AffineVar, PtrAffine, ScalarEvolution};
pub use ssa_verify::{verify_ssa, SsaError};

/// Bundle of the standard analyses for one function, built in dependency
/// order. Most passes want all of them.
pub struct FunctionAnalysis<'f> {
    /// The analysed function.
    pub func: &'f dae_ir::Function,
    /// Control-flow graph.
    pub cfg: Cfg,
    /// Dominator tree.
    pub dom: DomTree,
    /// Loop forest.
    pub forest: LoopForest,
}

impl<'f> FunctionAnalysis<'f> {
    /// Runs CFG, dominator and loop analysis on `func`.
    pub fn run(func: &'f dae_ir::Function) -> Self {
        let cfg = Cfg::new(func);
        let dom = DomTree::new(func, &cfg);
        let forest = LoopForest::new(func, &cfg, &dom);
        FunctionAnalysis { func, cfg, dom, forest }
    }

    /// Builds the scalar-evolution engine on top of the bundled analyses.
    pub fn scev(&'f self) -> ScalarEvolution<'f> {
        ScalarEvolution::new(self.func, &self.cfg, &self.dom, &self.forest)
    }
}
