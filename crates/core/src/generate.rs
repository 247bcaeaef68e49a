//! Top-level orchestration: per-task strategy selection and module
//! transformation.

use crate::access_info::{analyze_task, TaskAccessInfo};
use crate::affine::generate_affine_access;
use crate::options::{CompilerOptions, RefuseReason, Strategy};
use crate::skeleton::generate_skeleton_access;
use dae_ir::{FuncId, Function, Module};
use std::collections::HashMap;

/// The generated access phase of one task.
#[derive(Debug)]
pub struct GeneratedAccess {
    /// The access function (same signature as the task).
    pub func: Function,
    /// Which §5 path produced it.
    pub strategy: Strategy,
    /// The task's access-analysis summary (Table 1's loop statistics).
    pub info: TaskAccessInfo,
}

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
    // Inline first so the affine analysis sees through calls, exactly like
    // the paper generates the access version "after applying traditional
    // compiler optimizations to the original (execute) code".
    let inlined = dae_analysis::transform::inline_all(module, task)
        .map_err(|_| RefuseReason::NonInlinableCall(module.func(task).name.clone()))?;
    let inlined = dae_analysis::transform::optimize(&inlined);
    let info = analyze_task(module, &inlined);

    if let Some(affine) = generate_affine_access(&inlined, &info, opts) {
        return Ok(GeneratedAccess {
            func: affine.func,
            strategy: Strategy::Polyhedral(affine.stats),
            info,
        });
    }
    let func = generate_skeleton_access(module, task, opts)?;
    Ok(GeneratedAccess { func, strategy: Strategy::Skeleton, info })
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
    /// task → analysis summary.
    pub info_of: HashMap<FuncId, TaskAccessInfo>,
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
}
