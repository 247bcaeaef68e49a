//! Shared workload infrastructure: variants, auto-compilation, instances.

use dae_core::{transform_module, CompilerOptions, DaeMap};
use dae_ir::{FuncId, Function, Module};
use dae_runtime::TaskInstance;
use dae_sim::Val;
use std::collections::HashMap;

/// Which access-phase source a run uses (the three bars of Figure 3/4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Coupled access-execute: the original tasks, no access phases.
    Cae,
    /// Expert-written access phases.
    ManualDae,
    /// Compiler-generated access phases (this paper's contribution).
    AutoDae,
}

impl Variant {
    /// All three variants, in the paper's presentation order.
    pub const ALL: [Variant; 3] = [Variant::Cae, Variant::ManualDae, Variant::AutoDae];

    /// Short label used in tables.
    pub fn label(self) -> &'static str {
        match self {
            Variant::Cae => "CAE",
            Variant::ManualDae => "Manual DAE",
            Variant::AutoDae => "Auto DAE",
        }
    }
}

/// One benchmark: a module, its task instances, expert access phases and
/// the per-task compiler options for automatic generation.
pub struct Workload {
    /// Benchmark name as in Table 1.
    pub name: &'static str,
    /// The program.
    pub module: Module,
    /// Dynamic task instances, in creation order: (task function, args).
    pub instances: Vec<(FuncId, Vec<Val>)>,
    /// Barrier epoch per instance (parallel to `instances`; empty = all
    /// zero). Encodes the benchmark's task-graph dependencies, coarsened to
    /// phases.
    pub epochs: Vec<u32>,
    /// Expert-written access phase per task function.
    pub manual_access: HashMap<FuncId, FuncId>,
    /// Representative parameter values per task function (for the §5.1
    /// profitability counts).
    pub hints: HashMap<FuncId, Vec<i64>>,
    /// Extra compiler options applied to every task of this workload.
    pub base_options: CompilerOptions,
    auto: Option<DaeMap>,
}

impl Workload {
    /// Creates a workload shell; benchmarks fill the fields.
    pub(crate) fn new(name: &'static str, module: Module) -> Self {
        Workload {
            name,
            module,
            instances: Vec::new(),
            epochs: Vec::new(),
            manual_access: HashMap::new(),
            hints: HashMap::new(),
            base_options: CompilerOptions::default(),
            auto: None,
        }
    }

    /// Runs the access-phase compiler over all tasks (idempotent).
    ///
    /// The expert (manual) access phases are deliberately *not* run through
    /// the `-O3` pipeline: the paper's manual versions were "generated from
    /// the unoptimized source code" (§6.2.2) — the compiler's ability to
    /// derive its access phase *after* traditional optimizations is one of
    /// its two stated advantages over the manual approach.
    pub fn compile_auto(&mut self) -> &DaeMap {
        if self.auto.is_none() {
            let opts_for = self.auto_options_fn();
            let map = transform_module(&mut self.module, opts_for);
            self.auto = Some(map);
        }
        self.auto.as_ref().expect("just set")
    }

    /// The per-task options closure [`Workload::compile_auto`] uses, with
    /// the hint table captured by clone. Hand it to an external compilation
    /// driver (e.g. `dae-driver`) to reproduce `compile_auto` exactly.
    pub fn auto_options_fn(&self) -> impl FnMut(FuncId, &Function) -> CompilerOptions + 'static {
        let hints = self.hints.clone();
        let base = self.base_options.clone();
        move |task, _| CompilerOptions {
            param_hints: hints.get(&task).cloned().unwrap_or_default(),
            ..base.clone()
        }
    }

    /// Installs an externally produced compilation result (the access
    /// functions must already be registered in [`Workload::module`]),
    /// so [`Variant::AutoDae`] resolves through it.
    pub fn install_auto(&mut self, map: DaeMap) {
        self.auto = Some(map);
    }

    /// The compiler's decisions, if [`Workload::compile_auto`] has run.
    pub fn auto_map(&self) -> Option<&DaeMap> {
        self.auto.as_ref()
    }

    /// Materialises the task list for a variant.
    ///
    /// # Panics
    ///
    /// Panics if [`Variant::AutoDae`] is requested before
    /// [`Workload::compile_auto`].
    pub fn tasks(&self, variant: Variant) -> Vec<TaskInstance> {
        assert!(
            self.epochs.is_empty() || self.epochs.len() == self.instances.len(),
            "epochs must be empty or parallel to instances"
        );
        self.instances
            .iter()
            .enumerate()
            .map(|(k, (func, args))| {
                let access = match variant {
                    Variant::Cae => None,
                    Variant::ManualDae => self.manual_access.get(func).copied(),
                    Variant::AutoDae => self
                        .auto
                        .as_ref()
                        .expect("call compile_auto() before AutoDae tasks")
                        .access(*func),
                };
                TaskInstance {
                    func: *func,
                    access,
                    args: args.clone(),
                    epoch: self.epochs.get(k).copied().unwrap_or(0),
                }
            })
            .collect()
    }

    /// Total number of dynamic task instances (Table 1's `# tasks`).
    pub fn num_tasks(&self) -> usize {
        self.instances.len()
    }

    /// The distinct task functions of this workload.
    pub fn task_funcs(&self) -> Vec<FuncId> {
        let mut seen = Vec::new();
        for (f, _) in &self.instances {
            if !seen.contains(f) {
                seen.push(*f);
            }
        }
        seen
    }
}

/// Initialises an `f64` global with values computed in Rust.
pub fn init_f64_global(module: &mut Module, name: &str, values: &[f64]) -> dae_ir::GlobalId {
    module.add_global_init(dae_ir::GlobalData {
        name: name.to_string(),
        elem_ty: dae_ir::Type::F64,
        len: values.len() as u64,
        init: dae_ir::GlobalInit::Words(values.iter().map(|v| v.to_bits()).collect()),
    })
}

/// Initialises an `i64` global with values computed in Rust.
pub fn init_i64_global(module: &mut Module, name: &str, values: &[i64]) -> dae_ir::GlobalId {
    module.add_global_init(dae_ir::GlobalData {
        name: name.to_string(),
        elem_ty: dae_ir::Type::I64,
        len: values.len() as u64,
        init: dae_ir::GlobalInit::Words(values.iter().map(|v| *v as u64).collect()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dae_ir::{FunctionBuilder, Type, Value};

    fn tiny_workload() -> Workload {
        let mut m = Module::new();
        let a = m.add_global("a", Type::F64, 128);
        let mut b = FunctionBuilder::new("t", vec![Type::I64], Type::Void);
        b.set_task();
        b.counted_loop(Value::i64(0), Value::Arg(0), Value::i64(1), |b, i| {
            let p = b.elem_addr(Value::Global(a), i, Type::F64);
            let v = b.load(Type::F64, p);
            let w = b.fadd(v, 1.0f64);
            b.store(p, w);
        });
        b.ret(None);
        let t = m.add_function(b.finish());
        let mut w = Workload::new("tiny", m);
        w.instances = vec![(t, vec![Val::I(64)]), (t, vec![Val::I(64)])];
        w.hints.insert(t, vec![64]);
        w
    }

    #[test]
    fn variants_have_expected_access() {
        let mut w = tiny_workload();
        w.compile_auto();
        let cae = w.tasks(Variant::Cae);
        assert!(cae.iter().all(|t| t.access.is_none()));
        let auto = w.tasks(Variant::AutoDae);
        assert!(auto.iter().all(|t| t.access.is_some()));
        assert_eq!(w.num_tasks(), 2);
        assert_eq!(w.task_funcs().len(), 1);
    }

    #[test]
    fn compile_auto_is_idempotent() {
        let mut w = tiny_workload();
        let n1 = w.compile_auto().access_of.len();
        let funcs_after_first = w.module.num_funcs();
        let n2 = w.compile_auto().access_of.len();
        assert_eq!(n1, n2);
        assert_eq!(w.module.num_funcs(), funcs_after_first, "no duplicate generation");
    }

    #[test]
    #[should_panic(expected = "compile_auto")]
    fn auto_tasks_require_compilation() {
        let w = tiny_workload();
        let _ = w.tasks(Variant::AutoDae);
    }

    #[test]
    fn global_initialisers() {
        let mut m = Module::new();
        let g = init_f64_global(&mut m, "vals", &[1.5, 2.5]);
        assert_eq!(m.global(g).len, 2);
        let h = init_i64_global(&mut m, "idx", &[3, -4, 5]);
        assert_eq!(m.global(h).len, 3);
    }
}
