//! The pass manager: named pipelines of per-task compilation passes with
//! per-pass wall-clock timing and analysis invalidation.
//!
//! A [`Pipeline`] is an ordered list of [`Pass`]es run over a
//! [`TaskState`] — the mutable state of one task's compilation (the task's
//! inlined body, its access analysis, and finally the generated access
//! function). Transform passes declare which analyses they invalidate;
//! the manager drops those state slots after the pass runs, so a stale
//! analysis can never leak into a later pass.
//!
//! The standard pipeline decomposes [`dae_core::generate_access`] into its
//! four stages (inline → optimize → analyze → generate) and is **behaviour
//! preserving**: it calls the same functions in the same order, so the
//! produced access function is byte-identical to the monolithic path.
//!
//! Every executed pass yields a [`PassSpan`] — host wall-clock seconds
//! relative to the driver run's origin — which the driver forwards as
//! [`dae_trace::TraceEvent::CompilePass`] spans.

use dae_core::{
    analyze_task, generate_affine_access, generate_skeleton_access, CompilerOptions,
    GeneratedAccess, RefuseReason, Strategy, TaskAccessInfo,
};
use dae_ir::{FuncId, Function, Module};
use dae_pgo::{plan_refinement, PhaseProfile, RefineThresholds};
use dae_trace::Fnv64;
use std::time::Instant;

/// The timed record of one executed pass (or one cache probe).
#[derive(Clone, Debug, PartialEq)]
pub struct PassSpan {
    /// Worker lane that ran the pass (0 for the main thread).
    pub worker: u32,
    /// Pass name, e.g. `"inline"` or `"cache"`.
    pub pass: &'static str,
    /// Name of the task function being compiled.
    pub func: String,
    /// Start, in host seconds since the driver run's origin.
    pub start_s: f64,
    /// Duration, in host seconds.
    pub dur_s: f64,
    /// True when the result came from the incremental cache.
    pub cached: bool,
}

/// State slot names used by [`Pass::invalidates`].
pub mod slots {
    /// The task body after inlining/cleanup ([`super::TaskState::inlined`]).
    pub const INLINED_IR: &str = "inlined-ir";
    /// The access analysis ([`super::TaskState::info`]).
    pub const ACCESS_INFO: &str = "access-info";
}

/// Mutable state of one task's trip through a pipeline.
pub struct TaskState<'m> {
    /// The module being compiled (read-only: generated functions are merged
    /// by the driver, deterministically, after all workers finish).
    pub module: &'m Module,
    /// The task under compilation.
    pub task: FuncId,
    /// Options for this task.
    pub opts: CompilerOptions,
    /// The task's measured phase profile, when one exists. `None` (the
    /// static path) makes the `refine` pass a strict no-op.
    pub profile: Option<PhaseProfile>,
    /// The task body after inlining (and, later, cleanup).
    pub inlined: Option<Function>,
    /// The access analysis of the inlined body.
    pub info: Option<TaskAccessInfo>,
    /// The generated access function and the strategy that produced it.
    pub generated: Option<(Function, Strategy)>,
}

impl<'m> TaskState<'m> {
    /// Fresh state for one task.
    pub fn new(module: &'m Module, task: FuncId, opts: CompilerOptions) -> Self {
        TaskState { module, task, opts, profile: None, inlined: None, info: None, generated: None }
    }

    /// Drops one named state slot (pass-manager invalidation).
    fn invalidate(&mut self, slot: &str) {
        match slot {
            slots::INLINED_IR => self.inlined = None,
            slots::ACCESS_INFO => self.info = None,
            _ => {}
        }
    }
}

/// One compilation pass over a [`TaskState`].
pub trait Pass: Send + Sync {
    /// Short stable name (part of the pipeline fingerprint and trace spans).
    fn name(&self) -> &'static str;

    /// State slots this pass invalidates; the manager clears them after the
    /// pass runs.
    fn invalidates(&self) -> &'static [&'static str] {
        &[]
    }

    /// Runs the pass. An `Err` refuses the task (it runs coupled) and
    /// skips the remaining passes.
    fn run(&self, state: &mut TaskState<'_>) -> Result<(), RefuseReason>;
}

/// Inlines all calls so later passes see through them (the paper generates
/// the access version after traditional optimizations of the whole task).
struct InlineTask;

impl Pass for InlineTask {
    fn name(&self) -> &'static str {
        "inline"
    }

    fn run(&self, st: &mut TaskState<'_>) -> Result<(), RefuseReason> {
        let inlined = dae_analysis::transform::inline_all(st.module, st.task)
            .map_err(|_| RefuseReason::NonInlinableCall(st.module.func(st.task).name.clone()))?;
        st.inlined = Some(inlined);
        Ok(())
    }
}

/// The `-O3`-style cleanup over the inlined body.
struct CleanupIr;

impl Pass for CleanupIr {
    fn name(&self) -> &'static str {
        "optimize"
    }

    fn invalidates(&self) -> &'static [&'static str] {
        // Rewriting the body invalidates any analysis of it.
        &[slots::ACCESS_INFO]
    }

    fn run(&self, st: &mut TaskState<'_>) -> Result<(), RefuseReason> {
        let body = st.inlined.as_ref().expect("pipeline runs `inline` first");
        st.inlined = Some(dae_analysis::transform::optimize(body));
        Ok(())
    }
}

/// Profile-guided refinement (§PGO): turns the task's measured
/// [`PhaseProfile`] into option changes — or an outright refusal — before
/// analysis and generation run. With no profile attached this pass is a
/// strict no-op, keeping the static pipeline byte-identical.
struct RefineFromProfile {
    thresholds: RefineThresholds,
}

impl Pass for RefineFromProfile {
    fn name(&self) -> &'static str {
        "refine"
    }

    fn run(&self, st: &mut TaskState<'_>) -> Result<(), RefuseReason> {
        let Some(profile) = &st.profile else { return Ok(()) };
        let hints_present = st.opts.param_hints.iter().any(|&h| h != 0);
        let plan = plan_refinement(profile, hints_present, &self.thresholds);
        if plan.drop_access_phase {
            // Measured coverage says the access phase fetches nothing
            // execute would miss on: running it is pure overhead, so the
            // task runs coupled like any other refusal.
            return Err(RefuseReason::NothingToPrefetch);
        }
        if plan.line_dedup {
            st.opts.line_dedup = true;
        }
        if plan.force_profitable {
            st.opts.skip_hull_check = true;
        }
        if let Some(trips) = plan.trip_hint {
            // The measured trip count stands in for absent caller hints.
            let params = st.module.func(st.task).params.len();
            st.opts.param_hints = vec![trips; params];
        }
        Ok(())
    }
}

/// Extracts the affine access descriptors (Table 1's loop statistics).
struct AnalyzeAccesses;

impl Pass for AnalyzeAccesses {
    fn name(&self) -> &'static str {
        "analyze"
    }

    fn run(&self, st: &mut TaskState<'_>) -> Result<(), RefuseReason> {
        let body = st.inlined.as_ref().expect("pipeline runs `inline` first");
        st.info = Some(analyze_task(st.module, body));
        Ok(())
    }
}

/// Emits the access phase: polyhedral (§5.1) when affine and profitable,
/// otherwise the optimized skeleton (§5.2) — exactly mirroring
/// [`dae_core::generate_access`].
struct GenerateAccessPhase;

impl Pass for GenerateAccessPhase {
    fn name(&self) -> &'static str {
        "generate"
    }

    fn run(&self, st: &mut TaskState<'_>) -> Result<(), RefuseReason> {
        let body = st.inlined.as_ref().expect("pipeline runs `inline` first");
        let info = st.info.as_ref().expect("pipeline runs `analyze` first");
        if let Some(affine) = generate_affine_access(body, info, &st.opts) {
            st.generated = Some((affine.func, Strategy::Polyhedral(affine.stats)));
            return Ok(());
        }
        let func = generate_skeleton_access(st.module, st.task, &st.opts)?;
        st.generated = Some((func, Strategy::Skeleton));
        Ok(())
    }
}

/// A named, ordered pass sequence.
pub struct Pipeline {
    name: &'static str,
    passes: Vec<Box<dyn Pass>>,
}

impl Pipeline {
    /// The standard access-phase pipeline:
    /// `inline → optimize → refine → analyze → generate`.
    ///
    /// `refine` is profile-guided and a strict no-op for tasks without a
    /// profile, so the static path stays byte-identical to
    /// [`dae_core::generate_access`].
    pub fn standard() -> Pipeline {
        Pipeline {
            name: "dae-access",
            passes: vec![
                Box::new(InlineTask),
                Box::new(CleanupIr),
                Box::new(RefineFromProfile { thresholds: RefineThresholds::default() }),
                Box::new(AnalyzeAccesses),
                Box::new(GenerateAccessPhase),
            ],
        }
    }

    /// The pipeline's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The pass names, in execution order.
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// A stable digest of the pipeline identity (name, pass sequence, and
    /// the on-disk artifact schema revision). Part of every cache key:
    /// artifacts from a different pipeline or schema never alias.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_str(crate::cache::ARTIFACT_SCHEMA);
        h.write_str(self.name);
        h.write_u64(self.passes.len() as u64);
        for p in &self.passes {
            h.write_str(p.name());
        }
        h.finish()
    }

    /// Runs every pass over `task`, timing each one relative to `origin`
    /// and appending a [`PassSpan`] per executed pass.
    ///
    /// `profile` is the task's measured phase profile, consumed by the
    /// `refine` pass; `None` keeps the static path byte-identical.
    ///
    /// Read-only with respect to `module`; the caller merges the returned
    /// access function into the module (in deterministic task order).
    #[allow(clippy::too_many_arguments)]
    pub fn run_task(
        &self,
        module: &Module,
        task: FuncId,
        opts: CompilerOptions,
        profile: Option<PhaseProfile>,
        origin: Instant,
        worker: u32,
        spans: &mut Vec<PassSpan>,
    ) -> Result<GeneratedAccess, RefuseReason> {
        let func_name = module.func(task).name.clone();
        let mut st = TaskState::new(module, task, opts);
        st.profile = profile;
        for pass in &self.passes {
            let start_s = origin.elapsed().as_secs_f64();
            let result = pass.run(&mut st);
            spans.push(PassSpan {
                worker,
                pass: pass.name(),
                func: func_name.clone(),
                start_s,
                dur_s: origin.elapsed().as_secs_f64() - start_s,
                cached: false,
            });
            result?;
            for slot in pass.invalidates() {
                st.invalidate(slot);
            }
        }
        let (func, strategy) = st.generated.take().expect("`generate` is the final pass");
        let info = st.info.take().expect("`analyze` ran and `generate` preserves it");
        Ok(GeneratedAccess { func, strategy, info })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dae_ir::{print_function, FunctionBuilder, Type, Value};

    fn module_with_task() -> (Module, FuncId) {
        let mut m = Module::new();
        let a = m.add_global("a", Type::F64, 256);
        let mut b = FunctionBuilder::new("stream", vec![Type::I64], Type::Void);
        b.set_task();
        b.counted_loop(Value::i64(0), Value::i64(64), Value::i64(1), |b, i| {
            let idx = b.iadd(Value::Arg(0), i);
            let p = b.elem_addr(Value::Global(a), idx, Type::F64);
            let v = b.load(Type::F64, p);
            let w = b.fmul(v, 2.0f64);
            b.store(p, w);
        });
        b.ret(None);
        let t = m.add_function(b.finish());
        (m, t)
    }

    #[test]
    fn standard_pipeline_matches_generate_access() {
        let (m, t) = module_with_task();
        let opts = CompilerOptions { param_hints: vec![64], ..Default::default() };
        let reference = dae_core::generate_access(&m, t, &opts).expect("generates");
        let mut spans = Vec::new();
        let pipe = Pipeline::standard();
        let ours =
            pipe.run_task(&m, t, opts, None, Instant::now(), 3, &mut spans).expect("generates");
        assert_eq!(
            print_function(&ours.func, None),
            print_function(&reference.func, None),
            "pipeline must be byte-identical to the monolithic path"
        );
        assert_eq!(ours.strategy, reference.strategy);
        assert_eq!(ours.info.total_loads, reference.info.total_loads);
        assert_eq!(spans.len(), 5, "one span per pass");
        assert_eq!(
            spans.iter().map(|s| s.pass).collect::<Vec<_>>(),
            ["inline", "optimize", "refine", "analyze", "generate"]
        );
        assert!(spans.iter().all(|s| s.worker == 3 && !s.cached && s.dur_s >= 0.0));
        // Spans are ordered and non-overlapping within one task.
        for w in spans.windows(2) {
            assert!(w[1].start_s >= w[0].start_s + w[0].dur_s - 1e-9);
        }
    }

    #[test]
    fn refusal_skips_remaining_passes() {
        // A task with no loads refuses in `generate` with NothingToPrefetch.
        let mut m = Module::new();
        let a = m.add_global("a", Type::F64, 8);
        let mut b = FunctionBuilder::new("wo", vec![], Type::Void);
        b.set_task();
        let p = b.elem_addr(Value::Global(a), Value::i64(0), Type::F64);
        b.store(p, 1.0f64);
        b.ret(None);
        let t = m.add_function(b.finish());
        let mut spans = Vec::new();
        let err = Pipeline::standard()
            .run_task(&m, t, CompilerOptions::default(), None, Instant::now(), 0, &mut spans)
            .expect_err("refused");
        assert_eq!(err, RefuseReason::NothingToPrefetch);
        assert_eq!(spans.len(), 5, "the failing pass still reports its span");
    }

    #[test]
    fn fingerprint_is_stable_within_a_build() {
        assert_eq!(Pipeline::standard().fingerprint(), Pipeline::standard().fingerprint());
        assert_eq!(
            Pipeline::standard().pass_names(),
            ["inline", "optimize", "refine", "analyze", "generate"]
        );
    }

    #[test]
    fn refine_pass_applies_a_profile_and_noops_without_one() {
        use dae_pgo::{PhaseProfile, PhaseSample};
        let (m, t) = module_with_task();
        let opts = CompilerOptions { param_hints: vec![64], ..Default::default() };
        let pipe = Pipeline::standard();
        let origin = Instant::now();
        let statics =
            pipe.run_task(&m, t, opts.clone(), None, origin, 0, &mut Vec::new()).expect("static");

        // A useless access phase (zero coverage) refuses the task.
        let mut useless = PhaseProfile::default();
        useless.absorb(
            Some(&PhaseSample { instrs: 100, prefetches: 64, ..Default::default() }),
            &PhaseSample { instrs: 400, loads: 64, dram_misses: 64, ..Default::default() },
        );
        let err = pipe
            .run_task(&m, t, opts.clone(), Some(useless), origin, 0, &mut Vec::new())
            .expect_err("refused by refine");
        assert_eq!(err, RefuseReason::NothingToPrefetch);

        // A healthy profile leaves the static output intact, and the same
        // profile always produces the same bytes.
        let mut healthy = PhaseProfile::default();
        healthy.absorb(
            Some(&PhaseSample {
                instrs: 100,
                prefetches: 64,
                prefetch_dram_lines: 60,
                ..Default::default()
            }),
            &PhaseSample { instrs: 400, loads: 64, dram_misses: 4, ..Default::default() },
        );
        let refined = pipe
            .run_task(&m, t, opts.clone(), Some(healthy), origin, 0, &mut Vec::new())
            .expect("generates");
        assert_eq!(
            print_function(&refined.func, None),
            print_function(&statics.func, None),
            "a profile that plans nothing must not change the output"
        );
        let again = pipe
            .run_task(&m, t, opts, Some(healthy), origin, 0, &mut Vec::new())
            .expect("generates");
        assert_eq!(print_function(&again.func, None), print_function(&refined.func, None));
    }
}
