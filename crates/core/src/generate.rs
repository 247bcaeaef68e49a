//! Top-level orchestration: per-task strategy selection and module
//! transformation.

use crate::access_info::{analyze_task, AccessCounts};
use crate::affine::generate_affine_access;
use crate::options::{CompilerOptions, RefuseReason, Strategy};
use crate::skeleton::generate_skeleton_access;
use dae_analysis::transform::{inline_all, optimize_in};
use dae_analysis::Workspace;
use dae_ir::{FuncId, Function, Module};
use std::collections::HashMap;

/// The generated access phase of one task.
#[derive(Debug)]
pub struct GeneratedAccess {
    /// The access function (same signature as the task).
    pub func: Function,
    /// Which §5 path produced it.
    pub strategy: Strategy,
    /// The task's Table 1 counts.
    pub info: AccessCounts,
}

/// The stages of [`generate_access_with`], in the order they run and
/// report to its `on_stage` callback.
pub const STAGES: [&str; 5] = ["inline", "optimize", "refine", "analyze", "generate"];

/// Generates the access phase for one task: polyhedral when the task is
/// fully affine and profitable (§5.1), otherwise the optimized skeleton
/// (§5.2).
///
/// # Errors
///
/// Returns the paper's refusal conditions; see [`RefuseReason`].
pub fn generate_access(
    module: &Module,
    task: FuncId,
    opts: &CompilerOptions,
) -> Result<GeneratedAccess, RefuseReason> {
    generate_access_with(module, task, opts.clone(), |_| Ok(()), |_| {})
}

/// [`generate_access`] with one step a caller can fill and a report after
/// every stage.
///
/// The stages are [`STAGES`]. `adjust` is the `refine` stage: it runs after
/// the cleanup, may change the options analysis and generation use, and
/// may refuse the task (profile-guided refinement does both). `on_stage`
/// is called with each stage's name as the stage ends, including a stage
/// that refuses; no stage runs after a refusal.
///
/// # Errors
///
/// Returns the paper's refusal conditions, or the refusal of `adjust`.
pub fn generate_access_with(
    module: &Module,
    task: FuncId,
    mut opts: CompilerOptions,
    adjust: impl FnOnce(&mut CompilerOptions) -> Result<(), RefuseReason>,
    mut on_stage: impl FnMut(&'static str),
) -> Result<GeneratedAccess, RefuseReason> {
    // Inline first so the affine analysis sees through calls, exactly like
    // the paper generates the access version "after applying traditional
    // compiler optimizations to the original (execute) code". The raw
    // inlined body is kept: the skeleton path takes it over.
    let inlined = inline_task(module, task);
    on_stage("inline");
    let inlined = inlined?;
    // Every later stage runs on this thread's analysis buffers.
    Workspace::with(|ws| {
        let body = optimize_in(ws, inlined.clone());
        on_stage("optimize");
        let adjusted = adjust(&mut opts);
        on_stage("refine");
        adjusted?;
        let info = analyze_task(ws, &body);
        on_stage("analyze");
        let generated = match generate_affine_access(ws, &body, &info, &opts) {
            Some(affine) => Ok((affine.func, Strategy::Polyhedral(affine.stats))),
            None => generate_skeleton_access(ws, inlined, module.num_globals(), &opts)
                .map(|f| (f, Strategy::Skeleton)),
        };
        on_stage("generate");
        let (func, strategy) = generated?;
        Ok(GeneratedAccess { func, strategy, info: info.counts })
    })
}

/// `task` with every call inlined; a recursive call graph refuses it.
pub(crate) fn inline_task(module: &Module, task: FuncId) -> Result<Function, RefuseReason> {
    inline_all(module, task)
        .map_err(|_| RefuseReason::NonInlinableCall(module.func(task).name.clone()))
}

/// The result of transforming a whole module: access functions registered
/// next to their tasks.
#[derive(Debug, Default)]
pub struct DaeMap {
    /// task → generated access function, for tasks where generation
    /// succeeded.
    pub access_of: HashMap<FuncId, FuncId>,
    /// task → strategy used.
    pub strategy_of: HashMap<FuncId, Strategy>,
    /// task → refusal reason, for tasks where generation was refused (those
    /// run coupled, as in the paper).
    pub refused: HashMap<FuncId, RefuseReason>,
    /// task → Table 1 counts.
    pub info_of: HashMap<FuncId, AccessCounts>,
}

impl DaeMap {
    /// The access function for `task`, if one was generated.
    pub fn access(&self, task: FuncId) -> Option<FuncId> {
        self.access_of.get(&task).copied()
    }
}

/// Generates and registers an access function for every task in `module`.
/// Per-task options come from `opts_for` (parameter hints differ by task).
pub fn transform_module(
    module: &mut Module,
    mut opts_for: impl FnMut(FuncId, &Function) -> CompilerOptions,
) -> DaeMap {
    let mut map = DaeMap::default();
    let tasks = module.task_ids();
    for task in tasks {
        let opts = opts_for(task, module.func(task));
        match generate_access(module, task, &opts) {
            Ok(generated) => {
                let access_id = module.add_function(generated.func);
                map.access_of.insert(task, access_id);
                map.strategy_of.insert(task, generated.strategy);
                map.info_of.insert(task, generated.info);
            }
            Err(reason) => {
                map.refused.insert(task, reason);
            }
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use dae_ir::{verify_module, FunctionBuilder, Type, Value};

    fn module_with_two_tasks() -> Module {
        let mut m = Module::new();
        let a = m.add_global("a", Type::F64, 256);
        let idx = m.add_global("idx", Type::I64, 256);

        // Affine task: stream over a chunk of `a` starting at arg0.
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
        m.add_function(b.finish());

        // Non-affine task: gather through `idx`.
        let mut b = FunctionBuilder::new("gather", vec![Type::I64], Type::Void);
        b.set_task();
        b.counted_loop(Value::i64(0), Value::i64(64), Value::i64(1), |b, i| {
            let ip = b.elem_addr(Value::Global(idx), i, Type::I64);
            let j = b.load(Type::I64, ip);
            let p = b.elem_addr(Value::Global(a), j, Type::F64);
            let v = b.load(Type::F64, p);
            let w = b.fadd(v, 1.0f64);
            b.store(p, w);
        });
        b.ret(None);
        m.add_function(b.finish());
        m
    }

    #[test]
    fn strategies_split_as_expected() {
        let mut m = module_with_two_tasks();
        let map = transform_module(&mut m, |_, _| CompilerOptions {
            param_hints: vec![64],
            ..Default::default()
        });
        verify_module(&m).unwrap();
        assert_eq!(map.access_of.len(), 2);
        assert!(map.refused.is_empty());
        let stream = m.func_by_name("stream").unwrap();
        let gather = m.func_by_name("gather").unwrap();
        assert!(matches!(map.strategy_of[&stream], Strategy::Polyhedral(_)));
        assert!(matches!(map.strategy_of[&gather], Strategy::Skeleton));
        // access functions exist in the module with the right names
        assert!(m.func_by_name("stream__access").is_some());
        assert!(m.func_by_name("gather__access").is_some());
    }

    #[test]
    fn access_signature_matches_task() {
        let mut m = module_with_two_tasks();
        let map = transform_module(&mut m, |_, _| CompilerOptions {
            param_hints: vec![64],
            ..Default::default()
        });
        for (task, access) in &map.access_of {
            assert_eq!(m.func(*task).params, m.func(*access).params);
            assert_eq!(m.func(*access).ret, Type::Void);
            assert!(!m.func(*access).is_task, "access phases are not tasks themselves");
        }
    }

    #[test]
    fn polyhedral_disabled_forces_skeleton() {
        let mut m = module_with_two_tasks();
        let map = transform_module(&mut m, |_, _| CompilerOptions {
            enable_polyhedral: false,
            param_hints: vec![64],
            ..Default::default()
        });
        for s in map.strategy_of.values() {
            assert!(matches!(s, Strategy::Skeleton));
        }
        assert_eq!(map.access_of.len(), 2);
    }

    #[test]
    fn info_records_affine_loop_counts() {
        let mut m = module_with_two_tasks();
        let map = transform_module(&mut m, |_, _| CompilerOptions {
            param_hints: vec![64],
            ..Default::default()
        });
        let stream = m.func_by_name("stream").unwrap();
        let gather = m.func_by_name("gather").unwrap();
        assert_eq!(map.info_of[&stream].loops_affine, 1);
        assert_eq!(map.info_of[&stream].loops_total, 1);
        assert_eq!(map.info_of[&gather].loops_affine, 0);
        assert_eq!(map.info_of[&gather].loops_total, 1);
    }

    fn stages_of(
        m: &Module,
        task: FuncId,
        adjust: impl FnOnce(&mut CompilerOptions) -> Result<(), RefuseReason>,
    ) -> (Result<GeneratedAccess, RefuseReason>, Vec<&'static str>) {
        let mut seen = Vec::new();
        let opts = CompilerOptions { param_hints: vec![64], ..Default::default() };
        let r = generate_access_with(m, task, opts, adjust, |s| seen.push(s));
        (r, seen)
    }

    #[test]
    fn every_stage_reports_in_order() {
        let m = module_with_two_tasks();
        for name in ["stream", "gather"] {
            let (r, seen) = stages_of(&m, m.func_by_name(name).unwrap(), |_| Ok(()));
            assert!(r.is_ok(), "{name}");
            assert_eq!(seen, STAGES, "{name}");
        }
    }

    #[test]
    fn a_refusing_stage_reports_and_ends_the_sequence() {
        let mut m = module_with_two_tasks();
        let stream = m.func_by_name("stream").unwrap();
        let (r, seen) = stages_of(&m, stream, |_| Err(RefuseReason::NothingToPrefetch));
        assert_eq!(r.unwrap_err(), RefuseReason::NothingToPrefetch);
        assert_eq!(seen, STAGES[..3]);

        let mut b = FunctionBuilder::new("r", vec![], Type::Void);
        b.call(FuncId(m.num_funcs() as u32), vec![], Type::Void);
        b.ret(None);
        let r = m.add_function(b.finish());
        let (res, seen) = stages_of(&m, r, |_| panic!("no stage runs after a refusal"));
        assert_eq!(res.unwrap_err(), RefuseReason::NonInlinableCall("r".into()));
        assert_eq!(seen, STAGES[..1]);
    }

    #[test]
    fn adjusted_options_reach_generation() {
        let m = module_with_two_tasks();
        let stream = m.func_by_name("stream").unwrap();
        let (r, _) = stages_of(&m, stream, |o| {
            o.enable_polyhedral = false;
            Ok(())
        });
        assert_eq!(r.unwrap().strategy, Strategy::Skeleton);
    }
}
