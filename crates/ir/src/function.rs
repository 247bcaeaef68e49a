//! Functions: blocks, instructions and their layout.

use crate::entity::PrimaryMap;
use crate::inst::{InstKind, Terminator};
use crate::types::Type;
use crate::value::{BlockId, InstId, Value};

/// One basic block: typed parameters, an ordered instruction list and a
/// terminator.
#[derive(Clone, Debug, PartialEq)]
pub struct BlockData {
    /// Types of the block's SSA parameters.
    pub params: Vec<Type>,
    /// Instructions in program order.
    pub insts: Vec<InstId>,
    /// The block terminator. `None` only transiently during construction.
    pub term: Option<Terminator>,
}

impl BlockData {
    fn new() -> Self {
        BlockData { params: Vec::new(), insts: Vec::new(), term: None }
    }
}

/// Storage for one instruction.
#[derive(Clone, Debug, PartialEq)]
pub struct InstData {
    /// What the instruction does.
    pub kind: InstKind,
    /// Type of the produced value ([`Type::Void`] for stores/prefetches).
    pub ty: Type,
}

/// A function: an arena of blocks and instructions plus a signature.
///
/// Functions marked [`Function::is_task`] are the units the DAE runtime
/// schedules and the units the compiler generates access phases for.
#[derive(Clone, Debug, PartialEq)]
pub struct Function {
    /// Symbol name, unique within a module.
    pub name: String,
    /// Parameter types.
    pub params: Vec<Type>,
    /// Return type ([`Type::Void`] if none).
    pub ret: Type,
    /// Entry block.
    pub entry: BlockId,
    /// Whether this function is a schedulable task (§3 of the paper).
    pub is_task: bool,
    pub(crate) blocks: PrimaryMap<BlockId, BlockData>,
    pub(crate) insts: PrimaryMap<InstId, InstData>,
}

impl Function {
    /// Creates an empty function with a fresh entry block.
    pub fn new(name: impl Into<String>, params: Vec<Type>, ret: Type) -> Self {
        let mut blocks = PrimaryMap::new();
        let entry = blocks.push(BlockData::new());
        Function {
            name: name.into(),
            params,
            ret,
            entry,
            is_task: false,
            blocks,
            insts: PrimaryMap::new(),
        }
    }

    /// Turns `self` into what [`Function::new`] makes of this signature,
    /// keeping the storage its block and instruction arenas grew to.
    pub fn reset(&mut self, name: String, params: Vec<Type>, ret: Type) {
        self.blocks.clear();
        self.insts.clear();
        self.entry = self.blocks.push(BlockData::new());
        (self.name, self.params, self.ret, self.is_task) = (name, params, ret, false);
    }

    /// Makes room for `blocks` more blocks and `insts` more instructions, so
    /// a caller that knows the final size fills the arenas without growing
    /// them.
    pub fn reserve(&mut self, blocks: usize, insts: usize) {
        self.blocks.reserve(blocks);
        self.insts.reserve(insts);
    }

    /// Appends a fresh, empty block and returns its id.
    pub fn add_block(&mut self) -> BlockId {
        self.blocks.push(BlockData::new())
    }

    /// Adds an SSA parameter of type `ty` to `block`, returning the value.
    pub fn add_block_param(&mut self, block: BlockId, ty: Type) -> Value {
        let data = &mut self.blocks[block];
        let index = data.params.len() as u32;
        data.params.push(ty);
        Value::BlockParam { block, index }
    }

    /// Allocates an instruction (without placing it in any block).
    pub fn create_inst(&mut self, kind: InstKind, ty: Type) -> InstId {
        self.insts.push(InstData { kind, ty })
    }

    /// Appends an already-created instruction to the end of `block`.
    pub fn append_inst(&mut self, block: BlockId, inst: InstId) {
        self.blocks[block].insts.push(inst);
    }

    /// Sets the terminator of `block`.
    pub fn set_terminator(&mut self, block: BlockId, term: Terminator) {
        self.blocks[block].term = Some(term);
    }

    /// Shared access to a block.
    pub fn block(&self, block: BlockId) -> &BlockData {
        &self.blocks[block]
    }

    /// Mutable access to a block.
    pub fn block_mut(&mut self, block: BlockId) -> &mut BlockData {
        &mut self.blocks[block]
    }

    /// Shared access to an instruction.
    pub fn inst(&self, inst: InstId) -> &InstData {
        &self.insts[inst]
    }

    /// Mutable access to an instruction.
    pub fn inst_mut(&mut self, inst: InstId) -> &mut InstData {
        &mut self.insts[inst]
    }

    /// The terminator of `block`.
    ///
    /// # Panics
    ///
    /// Panics if the block has not been terminated yet.
    pub fn terminator(&self, block: BlockId) -> &Terminator {
        self.blocks[block].term.as_ref().expect("block not terminated")
    }

    /// Mutable terminator access.
    pub fn terminator_mut(&mut self, block: BlockId) -> &mut Terminator {
        self.blocks[block].term.as_mut().expect("block not terminated")
    }

    /// Iterates over all block ids in allocation order.
    ///
    /// Blocks unreachable from the entry are included; analyses typically
    /// iterate in reverse postorder instead (see `dae-analysis`).
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> + 'static {
        self.blocks.keys()
    }

    /// Number of allocated blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Number of allocated instructions (live or not).
    pub fn num_insts(&self) -> usize {
        self.insts.len()
    }

    /// The type of any value in the context of this function.
    pub fn value_type(&self, value: Value) -> Type {
        match value {
            Value::Inst(id) => self.insts[id].ty,
            Value::BlockParam { block, index } => self.blocks[block].params[index as usize],
            Value::Arg(i) => self.params[i as usize],
            Value::ConstI64(_) => Type::I64,
            Value::ConstF64(_) => Type::F64,
            Value::ConstBool(_) => Type::Bool,
            Value::Global(_) => Type::Ptr,
        }
    }

    /// Counts the instructions currently placed in blocks (the "live" size,
    /// as opposed to [`Function::num_insts`] which counts the arena).
    pub fn placed_inst_count(&self) -> usize {
        self.blocks.values().map(|b| b.insts.len()).sum()
    }

    /// Visits `(block, inst)` for every placed instruction in layout order.
    pub fn for_each_placed_inst(&self, mut f: impl FnMut(BlockId, InstId)) {
        for (bb, data) in self.blocks.iter() {
            for &i in &data.insts {
                f(bb, i);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{BinOp, BlockCall};

    fn sample() -> Function {
        let mut f = Function::new("f", vec![Type::I64], Type::I64);
        let entry = f.entry;
        let add = f.create_inst(
            InstKind::Binary { op: BinOp::IAdd, lhs: Value::Arg(0), rhs: Value::i64(1) },
            Type::I64,
        );
        f.append_inst(entry, add);
        f.set_terminator(entry, Terminator::Ret(Some(Value::Inst(add))));
        f
    }

    #[test]
    fn construct_simple_function() {
        let f = sample();
        assert_eq!(f.num_blocks(), 1);
        assert_eq!(f.placed_inst_count(), 1);
        assert_eq!(f.block(f.entry).insts.len(), 1);
        match f.terminator(f.entry) {
            Terminator::Ret(Some(Value::Inst(_))) => {}
            t => panic!("unexpected terminator {t:?}"),
        }
    }

    #[test]
    fn value_types() {
        let f = sample();
        let id = f.block(f.entry).insts[0];
        assert_eq!(f.value_type(Value::Inst(id)), Type::I64);
        assert_eq!(f.value_type(Value::Arg(0)), Type::I64);
        assert_eq!(f.value_type(Value::f64(1.0)), Type::F64);
        assert_eq!(f.value_type(Value::ConstBool(false)), Type::Bool);
    }

    #[test]
    fn block_params() {
        let mut f = Function::new("g", vec![], Type::Void);
        let header = f.add_block();
        let iv = f.add_block_param(header, Type::I64);
        assert_eq!(f.value_type(iv), Type::I64);
        assert_eq!(f.block(header).params.len(), 1);
        f.set_terminator(
            f.entry,
            Terminator::Jump(BlockCall::with_args(header, vec![Value::i64(0)])),
        );
        f.set_terminator(header, Terminator::Ret(None));
        assert_eq!(f.terminator(f.entry).successors().count(), 1);
    }

    #[test]
    #[should_panic(expected = "block not terminated")]
    fn missing_terminator_panics() {
        let f = Function::new("h", vec![], Type::Void);
        let _ = f.terminator(f.entry);
    }
}
