//! Modules: the unit of compilation, holding functions and global arrays.

use crate::entity::PrimaryMap;
use crate::function::Function;
use crate::types::Type;
use crate::value::{FuncId, GlobalId};

/// How a global array is initialised in simulated memory before a program
/// runs.
#[derive(Clone, Debug, PartialEq)]
pub enum GlobalInit {
    /// All elements zero.
    Zero,
    /// Explicit 64-bit words (interpreted per the element type).
    Words(Vec<u64>),
}

/// A module-level array in the simulated address space.
///
/// Globals model both the program's data arrays (matrices, state vectors,
/// sparse structures) and scalars shared between tasks (length-1 arrays).
#[derive(Clone, Debug, PartialEq)]
pub struct GlobalData {
    /// Symbol name, unique within a module.
    pub name: String,
    /// Element type.
    pub elem_ty: Type,
    /// Number of elements.
    pub len: u64,
    /// Initial contents.
    pub init: GlobalInit,
}

impl GlobalData {
    /// Total size in bytes the global occupies.
    pub fn size_bytes(&self) -> u64 {
        self.len * self.elem_ty.size_bytes()
    }
}

/// A compilation unit: functions plus globals.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Module {
    funcs: PrimaryMap<FuncId, Function>,
    globals: PrimaryMap<GlobalId, GlobalData>,
}

impl Module {
    /// Creates an empty module.
    pub fn new() -> Self {
        Module::default()
    }

    /// Adds a function, returning its id.
    pub fn add_function(&mut self, func: Function) -> FuncId {
        self.funcs.push(func)
    }

    /// Declares a zero-initialised global array.
    pub fn add_global(&mut self, name: impl Into<String>, elem_ty: Type, len: u64) -> GlobalId {
        self.globals.push(GlobalData { name: name.into(), elem_ty, len, init: GlobalInit::Zero })
    }

    /// Declares a global with explicit initial contents.
    pub fn add_global_init(&mut self, global: GlobalData) -> GlobalId {
        self.globals.push(global)
    }

    /// Shared access to a function.
    pub fn func(&self, id: FuncId) -> &Function {
        &self.funcs[id]
    }

    /// Mutable access to a function.
    pub fn func_mut(&mut self, id: FuncId) -> &mut Function {
        &mut self.funcs[id]
    }

    /// Shared access to a global.
    pub fn global(&self, id: GlobalId) -> &GlobalData {
        &self.globals[id]
    }

    /// Looks a function up by name.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.funcs.iter().find(|(_, f)| f.name == name).map(|(id, _)| id)
    }

    /// Looks a global up by name.
    pub fn global_by_name(&self, name: &str) -> Option<GlobalId> {
        self.globals.iter().find(|(_, g)| g.name == name).map(|(id, _)| id)
    }

    /// Iterates over `(id, &function)`.
    pub fn funcs(&self) -> impl Iterator<Item = (FuncId, &Function)> {
        self.funcs.iter()
    }

    /// Iterates over `(id, &global)`.
    pub fn globals(&self) -> impl Iterator<Item = (GlobalId, &GlobalData)> {
        self.globals.iter()
    }

    /// Number of functions.
    pub fn num_funcs(&self) -> usize {
        self.funcs.len()
    }

    /// Number of globals.
    pub fn num_globals(&self) -> usize {
        self.globals.len()
    }

    /// Ids of all functions marked as tasks.
    pub fn task_ids(&self) -> Vec<FuncId> {
        self.funcs.iter().filter(|(_, f)| f.is_task).map(|(id, _)| id).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_find() {
        let mut m = Module::new();
        let g = m.add_global("a", Type::F64, 16);
        let f = m.add_function(Function::new("task_one", vec![], Type::Void));
        assert_eq!(m.func_by_name("task_one"), Some(f));
        assert_eq!(m.global_by_name("a"), Some(g));
        assert_eq!(m.func_by_name("nope"), None);
        assert_eq!(m.global(g).size_bytes(), 128);
    }

    #[test]
    fn task_listing() {
        let mut m = Module::new();
        let mut t = Function::new("t", vec![], Type::Void);
        t.is_task = true;
        let t_id = m.add_function(t);
        m.add_function(Function::new("helper", vec![], Type::Void));
        assert_eq!(m.task_ids(), vec![t_id]);
    }

    #[test]
    fn global_init_words() {
        let mut m = Module::new();
        let g = m.add_global_init(GlobalData {
            name: "w".into(),
            elem_ty: Type::I64,
            len: 2,
            init: GlobalInit::Words(vec![1, 2]),
        });
        match &m.global(g).init {
            GlobalInit::Words(w) => assert_eq!(w, &vec![1, 2]),
            _ => panic!("wrong init"),
        }
    }
}
