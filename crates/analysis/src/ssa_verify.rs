//! SSA dominance verification.
//!
//! The structural verifier in `dae-ir` checks types and arities; this pass
//! checks the defining property of SSA that needs a dominator tree: **every
//! use of a value is dominated by its definition**. Transforms in this
//! workspace run it in their test suites after every rewrite.

use crate::cfg::Cfg;
use crate::dom::DomTree;
use dae_ir::{BlockId, Function, Value};
use std::fmt;

/// A dominance violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SsaError {
    /// Function name.
    pub func: String,
    /// Description of the violation.
    pub message: String,
}

impl fmt::Display for SsaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SSA violation in `{}`: {}", self.func, self.message)
    }
}

impl std::error::Error for SsaError {}

/// Verifies that every operand's definition dominates its use.
///
/// Instruction results must be defined earlier in the same block or in a
/// strictly dominating block; block parameters dominate exactly the blocks
/// their owner dominates; edge arguments are uses at the *end* of the
/// predecessor.
///
/// # Errors
///
/// Returns the first violation found. Unreachable blocks are skipped (they
/// are dead and removed by compaction).
pub fn verify_ssa(func: &Function) -> Result<(), SsaError> {
    let cfg = Cfg::new(func);
    let dom = DomTree::new(func, &cfg);

    // Definition site of every placed instruction, (block, position),
    // indexed by instruction id.
    let mut def_site: Vec<Option<(BlockId, usize)>> = vec![None; func.num_insts()];
    for &bb in cfg.rpo() {
        for (pos, &inst) in func.block(bb).insts.iter().enumerate() {
            def_site[inst.0 as usize] = Some((bb, pos));
        }
    }

    let err = |msg: String| SsaError { func: func.name.clone(), message: msg };

    // A use at (block, pos) of value v is legal iff…
    let check_use = |v: Value, use_bb: BlockId, use_pos: usize| -> Result<(), SsaError> {
        match v {
            Value::Inst(id) => {
                let (def_bb, def_pos) = def_site
                    .get(id.0 as usize)
                    .copied()
                    .flatten()
                    .ok_or_else(|| err(format!("{use_bb}: use of unplaced {id}")))?;
                let ok = if def_bb == use_bb {
                    def_pos < use_pos
                } else {
                    dom.dominates(def_bb, use_bb)
                };
                if !ok {
                    return Err(err(format!(
                        "{id} (defined in {def_bb}) does not dominate its use in {use_bb}"
                    )));
                }
            }
            Value::BlockParam { block, .. } if !dom.dominates(block, use_bb) => {
                return Err(err(format!("param of {block} does not dominate its use in {use_bb}")));
            }
            _ => {}
        }
        Ok(())
    };

    for &bb in cfg.rpo() {
        for (pos, &inst) in func.block(bb).insts.iter().enumerate() {
            let mut result = Ok(());
            func.inst(inst).kind.for_each_operand(|v| {
                if result.is_ok() {
                    result = check_use(v, bb, pos);
                }
            });
            result?;
        }
        // Terminator operands are uses at the end of the block.
        let end = func.block(bb).insts.len();
        let mut result = Ok(());
        func.terminator(bb).for_each_operand(|v| {
            if result.is_ok() {
                result = check_use(v, bb, end);
            }
        });
        result?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dae_ir::{BinOp, FunctionBuilder, InstKind, Terminator, Type};

    #[test]
    fn accepts_builder_loops() {
        let mut b = FunctionBuilder::new("ok", vec![Type::I64], Type::I64);
        let out = b.counted_loop_carried(
            Value::i64(0),
            Value::Arg(0),
            Value::i64(1),
            vec![Value::i64(0)],
            |b, i, c| vec![b.iadd(c[0], i)],
        );
        b.ret(Some(out[0]));
        verify_ssa(&b.finish()).unwrap();
    }

    #[test]
    fn rejects_use_before_def_in_block() {
        let mut f = dae_ir::Function::new("bad", vec![], Type::I64);
        let entry = f.entry;
        // v1 uses v0, but v1 is placed first.
        let v0 = f.create_inst(
            InstKind::Binary { op: BinOp::IAdd, lhs: Value::i64(1), rhs: Value::i64(2) },
            Type::I64,
        );
        let v1 = f.create_inst(
            InstKind::Binary { op: BinOp::IAdd, lhs: Value::Inst(v0), rhs: Value::i64(3) },
            Type::I64,
        );
        f.append_inst(entry, v1);
        f.append_inst(entry, v0);
        f.set_terminator(entry, Terminator::Ret(Some(Value::Inst(v1))));
        let e = verify_ssa(&f).unwrap_err();
        assert!(e.message.contains("does not dominate"), "{e}");
    }

    #[test]
    fn rejects_cross_branch_use() {
        // A value defined in one branch arm used in the other.
        let mut b = FunctionBuilder::new("cross", vec![Type::Bool], Type::I64);
        let then_bb = b.create_block();
        let else_bb = b.create_block();
        b.branch(Value::Arg(0), then_bb, vec![], else_bb, vec![]);
        b.switch_to(then_bb);
        let defined_in_then = b.iadd(1i64, 2i64);
        b.ret(Some(defined_in_then));
        b.switch_to(else_bb);
        let illegal = b.iadd(defined_in_then, 1i64); // not dominated!
        b.ret(Some(illegal));
        let f = b.finish();
        // Structural verification passes (types fine)…
        dae_ir::verify_function(&f, None).unwrap();
        // …but SSA dominance catches it.
        let e = verify_ssa(&f).unwrap_err();
        assert!(e.message.contains("does not dominate"), "{e}");
    }

    #[test]
    fn transforms_preserve_ssa() {
        let mut m = dae_ir::Module::new();
        let g = m.add_global("a", Type::F64, 256);
        let mut b = FunctionBuilder::new("t", vec![Type::I64], Type::Void);
        b.counted_loop(Value::i64(0), Value::i64(16), Value::i64(1), |b, i| {
            let gi = b.iadd(Value::Arg(0), i);
            let addr = b.elem_addr(Value::Global(g), gi, Type::F64);
            let v = b.load(Type::F64, addr);
            let w = b.fmul(v, 2.0f64);
            b.store(addr, w);
        });
        b.ret(None);
        let f = b.finish();
        verify_ssa(&f).unwrap();
        let opt = crate::transform::optimize(&f);
        verify_ssa(&opt).unwrap();
        let sr = crate::transform::strength_reduce_and_clean(&f);
        verify_ssa(&sr).unwrap();
    }
}
