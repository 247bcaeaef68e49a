//! Compiler options and refusal reasons.

use std::fmt;

/// Knobs of the access-phase generator.
///
/// Defaults follow the paper; the ablation benches flip individual knobs.
#[derive(Clone, Debug, PartialEq)]
pub struct CompilerOptions {
    /// Use the polyhedral path (§5.1) for affine tasks; when off, every task
    /// takes the skeleton path.
    pub enable_polyhedral: bool,
    /// Apply the §5.2.2 simplified-CFG optimisation (drop conditionals in
    /// loop bodies that do not maintain loop control flow).
    pub cfg_simplify: bool,
    /// §5.2.3 extension: prefetch only one access per cache line in
    /// generated affine nests (the expert trick of the Manual-DAE LibQ
    /// version). Off by default — the paper's auto-generator does not do it.
    pub line_dedup: bool,
    /// Allowed excess of the convex-hull point count:
    /// generate the hull scan iff `NconvUn - threshold <= NOrig`.
    pub hull_threshold: i64,
    /// Also emit prefetches for store addresses. The paper found this does
    /// not help ("prefetching the memory addresses accessed for writing does
    /// not improve performance"); kept as an ablation knob.
    pub prefetch_writes: bool,
    /// Representative values for the task's scalar parameters, used to
    /// evaluate the profitability counts (`NOrig`, `NconvUn`). One value per
    /// task parameter; tasks whose counts need a missing hint fall back to
    /// the skeleton path.
    pub param_hints: Vec<i64>,
    /// Disable the §5.1 profitability check entirely (ablation:
    /// always scan the hull).
    pub skip_hull_check: bool,
}

impl Default for CompilerOptions {
    fn default() -> Self {
        CompilerOptions {
            enable_polyhedral: true,
            cfg_simplify: true,
            line_dedup: false,
            hull_threshold: 0,
            prefetch_writes: false,
            param_hints: Vec::new(),
            skip_hull_check: false,
        }
    }
}

impl CompilerOptions {
    /// These options for task `f`, with `hints` as its parameter hints when
    /// there is exactly one per parameter and zeros otherwise — the one
    /// rule by which a module-wide `--hints` list reaches a task.
    pub fn with_hints_for(self, f: &dae_ir::Function, hints: &[i64]) -> Self {
        let n = f.params.len();
        let param_hints = if hints.len() == n { hints.to_vec() } else { vec![0; n] };
        CompilerOptions { param_hints, ..self }
    }
}

/// Why no access version was generated for a task (§3.1 and §5.2.2 safety
/// conditions).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RefuseReason {
    /// The task (transitively) contains recursive, non-inlinable calls.
    NonInlinableCall(String),
    /// Loop control flow of the access version would depend on memory the
    /// task itself writes.
    ControlDependsOnTaskWrites,
    /// The task has no memory reads to prefetch.
    NothingToPrefetch,
}

impl fmt::Display for RefuseReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RefuseReason::NonInlinableCall(name) => {
                write!(f, "task contains non-inlinable call in `{name}`")
            }
            RefuseReason::ControlDependsOnTaskWrites => {
                write!(f, "access-phase control flow would depend on task-written memory")
            }
            RefuseReason::NothingToPrefetch => write!(f, "task performs no memory reads"),
        }
    }
}

impl std::error::Error for RefuseReason {}

impl dae_ir::CodedError for RefuseReason {
    fn code(&self) -> &'static str {
        match self {
            RefuseReason::NonInlinableCall(_) => "compile.refused.non-inlinable-call",
            RefuseReason::ControlDependsOnTaskWrites => {
                "compile.refused.control-depends-on-task-writes"
            }
            RefuseReason::NothingToPrefetch => "compile.refused.nothing-to-prefetch",
        }
    }
}

/// Which §5 path produced an access version.
#[derive(Clone, Debug, PartialEq)]
pub enum Strategy {
    /// §5.1 polyhedral convex-union analysis.
    Polyhedral(AffineStats),
    /// §5.2 optimized task skeleton.
    Skeleton,
}

/// Statistics of the polyhedral decision for one task.
#[derive(Clone, Debug, PartialEq)]
pub struct AffineStats {
    /// Distinct cells touched by the original task (`NOrig`), per the
    /// representative parameters.
    pub n_orig: u64,
    /// Integer points in the convex union scanned by the generated nest
    /// (`NconvUn`).
    pub n_conv_un: u64,
    /// Number of access classes (arrays / parameter-distinct blocks).
    pub classes: usize,
    /// Number of generated scanning loop nests after merging.
    pub nests: usize,
    /// Depth of the original task's deepest analysed loop nest.
    pub orig_depth: usize,
    /// Depth of the deepest generated scanning nest.
    pub gen_depth: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let o = CompilerOptions::default();
        assert!(o.enable_polyhedral);
        assert!(o.cfg_simplify);
        assert!(!o.line_dedup);
        assert!(!o.prefetch_writes);
        assert_eq!(o.hull_threshold, 0);
    }

    #[test]
    fn refuse_reasons_display() {
        assert!(RefuseReason::NonInlinableCall("f".into()).to_string().contains("non-inlinable"));
        assert!(RefuseReason::ControlDependsOnTaskWrites.to_string().contains("control"));
        assert!(RefuseReason::NothingToPrefetch.to_string().contains("no memory reads"));
    }
}
