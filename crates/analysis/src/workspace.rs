//! One set of buffers for the analyses and clean-up passes of a compile.
//!
//! Every analysis and pass of the access-phase pipeline sizes a handful of
//! tables by the function's block or instruction count: the CFG, the
//! dominator tree, the loop forest, the scalar-evolution memos, the
//! compaction maps and the work lists of each clean-up round. A
//! [`Workspace`] owns all of them. A pass clears the tables it uses before
//! filling them, never shrinks them, and leaves them behind for the next
//! pass or function, so once the workspace has seen the largest function
//! of a stream those passes stop allocating.
//!
//! Each thread has one ([`Workspace::with`]); the `_in` entry points take
//! one explicitly, so a caller or test can run on a fresh workspace or on
//! one that has just processed other functions and compare the two.

use std::cell::RefCell;

use dae_ir::Function;

use crate::cfg::Cfg;
use crate::dom::DomTree;
use crate::loops::LoopForest;
use crate::scev::{ScalarEvolution, ScevMemo};
use crate::transform::{CleanupScratch, StrengthScratch};
use crate::FunctionAnalysis;

/// The reusable buffers of the analyses and clean-up passes.
#[derive(Default)]
pub struct Workspace {
    pub(crate) cfg: Cfg,
    dom: DomTree,
    forest: LoopForest,
    memo: ScevMemo,
    pub(crate) cleanup: CleanupScratch,
    pub(crate) strength: StrengthScratch,
}

thread_local! {
    static WORKSPACE: RefCell<Workspace> = RefCell::new(Workspace::new());
}

impl Workspace {
    /// An empty workspace; its buffers grow with the first functions it
    /// processes.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Runs `f` on this thread's workspace. A call nested inside another
    /// (the thread's workspace is already lent out) gets a fresh one.
    pub fn with<R>(f: impl FnOnce(&mut Workspace) -> R) -> R {
        WORKSPACE.with(|cell| match cell.try_borrow_mut() {
            Ok(mut ws) => f(&mut ws),
            Err(_) => f(&mut Workspace::new()),
        })
    }

    /// CFG, dominator and loop analysis of `func`, built in the
    /// workspace's buffers. Hand them back with [`Workspace::reclaim`].
    pub fn analyze<'f>(&mut self, func: &'f Function) -> FunctionAnalysis<'f> {
        let (mut cfg, mut dom, mut forest) = self.take_graphs();
        cfg.rebuild(func);
        dom.rebuild(func, &cfg);
        forest.rebuild(func, &cfg, &dom);
        FunctionAnalysis { func, cfg, dom, forest }
    }

    /// The scalar-evolution engine of `analysis`, on the workspace's
    /// memos. Hand them back with [`Workspace::reclaim_scev`].
    pub fn scev<'f>(&mut self, analysis: &'f FunctionAnalysis<'f>) -> ScalarEvolution<'f> {
        ScalarEvolution::with_memo(
            std::mem::take(&mut self.memo),
            analysis.func,
            &analysis.cfg,
            &analysis.forest,
        )
    }

    /// Takes back the buffers of an [`Workspace::analyze`].
    pub fn reclaim(&mut self, analysis: FunctionAnalysis<'_>) {
        self.cfg = analysis.cfg;
        self.dom = analysis.dom;
        self.forest = analysis.forest;
    }

    /// Takes back the memos of a [`Workspace::scev`].
    pub fn reclaim_scev(&mut self, scev: ScalarEvolution<'_>) {
        self.memo = scev.into_memo();
    }

    fn take_graphs(&mut self) -> (Cfg, DomTree, LoopForest) {
        (
            std::mem::take(&mut self.cfg),
            std::mem::take(&mut self.dom),
            std::mem::take(&mut self.forest),
        )
    }
}
