//! Textual form of the IR, used for debugging, docs, golden tests, the
//! driver's cache keys and its on-disk artifacts.
//!
//! [`print_function_into`] is the one writer: it appends to a caller's
//! `String`, so a caller printing many functions (a module, a cache key
//! over a task and its callees) reuses one buffer. Names, ids and integers
//! are copied or written digit by digit; only float constants go through
//! `{:?}`, the spelling the parser reads back bit for bit.

use crate::function::Function;
use crate::inst::{BlockCall, InstKind, Terminator};
use crate::module::Module;
use crate::types::Type;
use crate::value::Value;
use std::fmt::Write;

/// Appends the decimal digits of `n`.
fn push_u64(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
}

/// Appends `prefix` followed by the decimal digits of `n` (`v3`, `bb1`).
fn push_id(out: &mut String, prefix: &str, n: u32) {
    out.push_str(prefix);
    push_u64(out, n.into());
}

/// Appends a value's text; `Value`'s `Debug` and `Display` spell it here too.
pub(crate) fn push_value(out: &mut String, v: Value) {
    match v {
        Value::Inst(id) => push_id(out, "v", id.0),
        Value::BlockParam { block, index } => {
            push_id(out, "bb", block.0);
            push_id(out, "p", index);
        }
        Value::Arg(i) => push_id(out, "arg", i),
        Value::ConstI64(n) => {
            if n < 0 {
                out.push('-');
            }
            push_u64(out, n.unsigned_abs());
        }
        Value::ConstF64(bits) => {
            let _ = write!(out, "{:?}", f64::from_bits(bits));
        }
        Value::ConstBool(b) => out.push_str(if b { "true" } else { "false" }),
        Value::Global(g) => push_id(out, "@g", g.0),
    }
}

/// Appends `values` separated by `, `.
fn push_list(out: &mut String, values: &[Value]) {
    for (i, &v) in values.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_value(out, v);
    }
}

/// Appends an edge: `bbN` or `bbN(args)`.
fn push_block_call(out: &mut String, call: &BlockCall) {
    push_id(out, "bb", call.block.0);
    if !call.args.is_empty() {
        out.push('(');
        push_list(out, &call.args);
        out.push(')');
    }
}

/// Appends `mnemonic operand, operand, ...`.
fn push_op(out: &mut String, mnemonic: &str, operands: &[Value]) {
    out.push_str(mnemonic);
    out.push(' ');
    push_list(out, operands);
}

/// Appends one instruction without its result binding.
fn push_inst_kind(out: &mut String, module: Option<&Module>, kind: &InstKind) {
    match kind {
        InstKind::Binary { op, lhs, rhs } => push_op(out, op.mnemonic(), &[*lhs, *rhs]),
        InstKind::Unary { op, operand } => push_op(out, op.mnemonic(), &[*operand]),
        InstKind::Cmp { op, lhs, rhs } => {
            out.push_str("icmp ");
            push_op(out, op.mnemonic(), &[*lhs, *rhs]);
        }
        InstKind::Select { cond, then_value, else_value } => {
            push_op(out, "select", &[*cond, *then_value, *else_value]);
        }
        InstKind::PtrAdd { base, offset } => push_op(out, "ptradd", &[*base, *offset]),
        InstKind::Load { addr } => push_op(out, "load", &[*addr]),
        InstKind::Store { addr, value } => push_op(out, "store", &[*addr, *value]),
        InstKind::Prefetch { addr } => push_op(out, "prefetch", &[*addr]),
        InstKind::Call { callee, args } => {
            out.push_str("call ");
            match module {
                Some(m) => out.push_str(&m.func(*callee).name),
                None => push_id(out, "fn", callee.0),
            }
            out.push('(');
            push_list(out, args);
            out.push(')');
        }
    }
}

/// Appends the text of `func` to `out`. Pass the owning module to print
/// callees by name; without it a callee prints as its id (`fn3`).
pub fn print_function_into(out: &mut String, func: &Function, module: Option<&Module>) {
    if func.is_task {
        out.push_str("task ");
    }
    out.push_str("fn ");
    out.push_str(&func.name);
    out.push('(');
    for (i, t) in func.params.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_id(out, "arg", i as u32);
        out.push_str(": ");
        out.push_str(t.name());
    }
    out.push(')');
    if func.ret != Type::Void {
        out.push_str(" -> ");
        out.push_str(func.ret.name());
    }
    out.push_str(" {\n");
    for bb in func.block_ids() {
        let data = func.block(bb);
        push_id(out, "bb", bb.0);
        if !data.params.is_empty() {
            out.push('(');
            for (i, t) in data.params.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                push_id(out, "bb", bb.0);
                push_id(out, "p", i as u32);
                out.push_str(": ");
                out.push_str(t.name());
            }
            out.push(')');
        }
        out.push_str(":\n");
        for &inst in &data.insts {
            let d = func.inst(inst);
            out.push_str("  ");
            if d.ty != Type::Void {
                push_id(out, "v", inst.0);
                out.push_str(": ");
                out.push_str(d.ty.name());
                out.push_str(" = ");
            }
            push_inst_kind(out, module, &d.kind);
            out.push('\n');
        }
        match &data.term {
            Some(Terminator::Jump(dest)) => {
                out.push_str("  jump ");
                push_block_call(out, dest);
            }
            Some(Terminator::Branch { cond, then_dest, else_dest }) => {
                out.push_str("  br ");
                push_value(out, *cond);
                out.push_str(", ");
                push_block_call(out, then_dest);
                out.push_str(", ");
                push_block_call(out, else_dest);
            }
            Some(Terminator::Ret(Some(v))) => {
                out.push_str("  ret ");
                push_value(out, *v);
            }
            Some(Terminator::Ret(None)) => out.push_str("  ret"),
            None => out.push_str("  <unterminated>"),
        }
        out.push('\n');
    }
    out.push_str("}\n");
}

/// Pretty-prints a function. Pass the owning module to resolve callee names.
pub fn print_function(func: &Function, module: Option<&Module>) -> String {
    let mut out = String::new();
    print_function_into(&mut out, func, module);
    out
}

/// Pretty-prints a whole module (globals, then functions).
pub fn print_module(module: &Module) -> String {
    let mut out = String::new();
    for (id, g) in module.globals() {
        push_id(&mut out, "global g", id.0);
        out.push(' ');
        out.push_str(&g.name);
        out.push_str(" : ");
        push_u64(&mut out, g.len);
        out.push_str(" x ");
        out.push_str(g.elem_ty.name());
        out.push('\n');
    }
    if module.num_globals() > 0 {
        out.push('\n');
    }
    for (_, f) in module.funcs() {
        print_function_into(&mut out, f, Some(module));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::value::GlobalId;

    #[test]
    fn prints_simple_function() {
        let mut b = FunctionBuilder::new("f", vec![Type::I64], Type::I64);
        let v = b.iadd(Value::Arg(0), 1i64);
        b.ret(Some(v));
        let text = print_function(&b.finish(), None);
        assert!(text.contains("fn f(arg0: i64) -> i64 {"), "{text}");
        assert!(text.contains("v0: i64 = iadd arg0, 1"), "{text}");
        assert!(text.contains("ret v0"), "{text}");
    }

    #[test]
    fn prints_loops_with_block_args() {
        let mut b = FunctionBuilder::new("l", vec![Type::I64], Type::Void);
        b.counted_loop(Value::i64(0), Value::Arg(0), Value::i64(1), |b, i| {
            let a = b.imul(i, 8i64);
            let p = b.ptr_add(Value::Global(GlobalId(0)), a);
            b.prefetch(p);
        });
        b.ret(None);
        let text = print_function(&b.finish(), None);
        assert!(text.contains("jump bb1(0)"), "{text}");
        assert!(text.contains("br v0, bb2, bb3"), "{text}");
        assert!(text.contains("prefetch"), "{text}");
    }

    #[test]
    fn prints_module_with_globals() {
        let mut m = Module::new();
        m.add_global("a", Type::F64, 64);
        let mut b = FunctionBuilder::new("t", vec![], Type::Void);
        b.ret(None);
        let mut f = b.finish();
        f.is_task = true;
        m.add_function(f);
        let text = print_module(&m);
        assert!(text.contains("global g0 a : 64 x f64"), "{text}");
        assert!(text.contains("task fn t()"), "{text}");
    }

    #[test]
    fn call_uses_function_name() {
        let mut m = Module::new();
        let mut cb = FunctionBuilder::new("callee", vec![Type::I64], Type::I64);
        cb.ret(Some(Value::Arg(0)));
        let callee = m.add_function(cb.finish());
        let mut b = FunctionBuilder::new("caller", vec![], Type::Void);
        b.call(callee, vec![Value::i64(3)], Type::I64);
        b.ret(None);
        m.add_function(b.finish());
        let text = print_module(&m);
        assert!(text.contains("call callee(3)"), "{text}");
    }

    #[test]
    fn printing_into_appends() {
        let mut b = FunctionBuilder::new("f", vec![], Type::Void);
        b.ret(None);
        let f = b.finish();
        let mut out = String::from("prefix\n");
        print_function_into(&mut out, &f, None);
        assert_eq!(out, "prefix\nfn f() {\nbb0:\n  ret\n}\n");
    }
}
