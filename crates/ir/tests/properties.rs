//! Property-based tests: randomly generated modules survive
//! print → parse → print round trips and always verify, any spelling
//! of their value and block names parses to the same module.
//!
//! The generator covers every instruction kind (all binary and unary
//! operators, integer and float `select`, value and void calls across three
//! functions), multi-argument edges into blocks with parameters, and the
//! constants whose spelling is easiest to get wrong (`i64::MIN`, `-0.0`,
//! `±inf`, `NaN`, a subnormal, `1e300`, `0.1`).

use dae_ir::{
    parse::parse_module, print_module, verify_module, BinOp, CmpOp, FuncId, FunctionBuilder,
    GlobalId, Module, Type, UnOp, Value,
};
use proptest::prelude::*;

const INT_OPS: [BinOp; 10] = [
    BinOp::IAdd,
    BinOp::ISub,
    BinOp::IMul,
    BinOp::IDiv,
    BinOp::IRem,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
    BinOp::Shl,
    BinOp::AShr,
];
const FLOAT_OPS: [BinOp; 6] =
    [BinOp::FAdd, BinOp::FSub, BinOp::FMul, BinOp::FDiv, BinOp::FMin, BinOp::FMax];
const CMPS: [CmpOp; 6] = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
const UNARY: [UnOp; 8] = [
    UnOp::INeg,
    UnOp::FNeg,
    UnOp::FSqrt,
    UnOp::IToF,
    UnOp::FToI,
    UnOp::PtrToInt,
    UnOp::IntToPtr,
    UnOp::Not,
];

/// A recipe for one instruction over previously defined values; the
/// indices pick from the pool of the operand's type, modulo its size.
#[derive(Clone, Debug)]
enum Step {
    IBin(usize, usize, usize),
    FBin(usize, usize, usize),
    /// `icmp`, then `select` over two ints.
    Cmp(usize, usize, usize),
    /// `select` over two floats.
    FSelect(usize, usize, usize),
    Unary(usize, usize),
    LoadF(usize),
    StoreF(usize, usize),
    Prefetch(usize),
    /// `helper(int, float) -> f64`.
    Call(usize, usize),
    /// `sink(ptr, float)`, a void call.
    CallVoid(usize, usize),
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0usize..64, 0usize..64, 0usize..64).prop_map(|(o, a, b)| Step::IBin(o, a, b)),
        (0usize..64, 0usize..64, 0usize..64).prop_map(|(o, a, b)| Step::FBin(o, a, b)),
        (0usize..64, 0usize..64, 0usize..64).prop_map(|(o, a, b)| Step::Cmp(o, a, b)),
        (0usize..64, 0usize..64, 0usize..64).prop_map(|(c, x, y)| Step::FSelect(c, x, y)),
        (0usize..64, 0usize..64).prop_map(|(o, a)| Step::Unary(o, a)),
        (0usize..64).prop_map(Step::LoadF),
        (0usize..64, 0usize..64).prop_map(|(a, v)| Step::StoreF(a, v)),
        (0usize..64).prop_map(Step::Prefetch),
        (0usize..64, 0usize..64).prop_map(|(a, x)| Step::Call(a, x)),
        (0usize..64, 0usize..64).prop_map(|(p, x)| Step::CallVoid(p, x)),
    ]
}

/// Values defined so far, one pool per type.
struct Pools {
    ints: Vec<Value>,
    floats: Vec<Value>,
    ptrs: Vec<Value>,
    bools: Vec<Value>,
}

fn pick(pool: &[Value], i: usize) -> Value {
    pool[i % pool.len()]
}

impl Pools {
    /// The literals every pool starts from, the edge cases among them.
    fn new(iv: Value, float_arg: Value, data: GlobalId) -> Pools {
        let floats = [1.5, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 5e-324, 1e300, 0.1];
        Pools {
            ints: vec![
                Value::i64(1),
                Value::i64(7),
                Value::i64(i64::MIN),
                Value::i64(i64::MAX),
                iv,
            ],
            floats: floats.into_iter().map(Value::f64).chain([float_arg]).collect(),
            ptrs: vec![Value::Global(data)],
            bools: vec![Value::ConstBool(true), Value::ConstBool(false)],
        }
    }

    /// An in-bounds element address of `data`.
    fn addr(&mut self, b: &mut FunctionBuilder, data: GlobalId, i: usize) -> Value {
        let wrapped = b.and(pick(&self.ints, i), 255i64);
        let p = b.elem_addr(Value::Global(data), wrapped, Type::F64);
        self.ptrs.push(p);
        p
    }

    fn emit(&mut self, b: &mut FunctionBuilder, s: &Step, data: GlobalId, callees: [FuncId; 2]) {
        match *s {
            Step::IBin(o, x, y) => {
                let v = b.binary(INT_OPS[o % 10], pick(&self.ints, x), pick(&self.ints, y));
                self.ints.push(v);
            }
            Step::FBin(o, x, y) => {
                let v = b.binary(FLOAT_OPS[o % 6], pick(&self.floats, x), pick(&self.floats, y));
                self.floats.push(v);
            }
            Step::Cmp(o, x, y) => {
                let cond = b.cmp(CMPS[o % 6], pick(&self.ints, x), pick(&self.ints, y));
                self.bools.push(cond);
                let v = b.select(cond, pick(&self.ints, y), pick(&self.ints, x));
                self.ints.push(v);
            }
            Step::FSelect(c, x, y) => {
                let v =
                    b.select(pick(&self.bools, c), pick(&self.floats, x), pick(&self.floats, y));
                self.floats.push(v);
            }
            Step::Unary(o, a) => {
                let op = UNARY[o % 8];
                let operand = match op {
                    UnOp::INeg | UnOp::IToF | UnOp::IntToPtr => pick(&self.ints, a),
                    UnOp::FNeg | UnOp::FSqrt | UnOp::FToI => pick(&self.floats, a),
                    UnOp::PtrToInt => pick(&self.ptrs, a),
                    UnOp::Not => pick(&self.bools, a),
                };
                let v = b.unary(op, operand);
                match op.result_type() {
                    Type::I64 => self.ints.push(v),
                    Type::F64 => self.floats.push(v),
                    Type::Ptr => self.ptrs.push(v),
                    _ => self.bools.push(v),
                }
            }
            Step::LoadF(a) => {
                let p = self.addr(b, data, a);
                let v = b.load(Type::F64, p);
                self.floats.push(v);
            }
            Step::StoreF(a, v) => {
                let p = self.addr(b, data, a);
                b.store(p, pick(&self.floats, v));
            }
            Step::Prefetch(a) => {
                let p = self.addr(b, data, a);
                b.prefetch(p);
            }
            Step::Call(a, x) => {
                let args = vec![pick(&self.ints, a), pick(&self.floats, x)];
                let v = b.call(callees[0], args, Type::F64).expect("helper returns f64");
                self.floats.push(v);
            }
            Step::CallVoid(p, x) => {
                let args = vec![pick(&self.ptrs, p), pick(&self.floats, x)];
                assert!(b.call(callees[1], args, Type::Void).is_none());
            }
        }
    }
}

/// How the task's body is laid out.
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// One block.
    Straight,
    /// A counted loop carrying an int and a float, then an if/else merging
    /// two values: edges with several arguments into blocks with params.
    /// Instructions are created in the order they print, so the module is
    /// already in parsed (compact) form.
    Carried,
    /// The steps split around a nested loop: the outer loop's exit prints
    /// before the instructions created after it, so parsing renumbers.
    Nested,
}

/// Builds `helper`, `sink` and the task `generated` over `steps`.
fn build_module(steps: &[Step], shape: Shape) -> Module {
    build_module_named(steps, shape, ["data", "idx"])
}

/// [`build_module`] with its two globals named `names`.
fn build_module_named(steps: &[Step], shape: Shape, names: [&str; 2]) -> Module {
    let mut m = Module::new();
    let data = m.add_global(names[0], Type::F64, 256);
    let idx = m.add_global(names[1], Type::I64, 16);

    let mut h = FunctionBuilder::new("helper", vec![Type::I64, Type::F64], Type::F64);
    let x = h.itof(Value::Arg(0));
    let y = h.fmul(x, Value::Arg(1));
    h.ret(Some(y));
    let helper = m.add_function(h.finish());
    let mut s = FunctionBuilder::new("sink", vec![Type::Ptr, Type::F64], Type::Void);
    s.store(Value::Arg(0), Value::Arg(1));
    s.ret(None);
    let sink = m.add_function(s.finish());
    let callees = [helper, sink];

    let mut b = FunctionBuilder::new("generated", vec![Type::I64, Type::F64], Type::Void);
    b.set_task();
    b.prefetch(Value::Global(idx));
    match shape {
        Shape::Straight => {
            let mut pools = Pools::new(Value::i64(3), Value::Arg(1), data);
            for st in steps {
                pools.emit(&mut b, st, data, callees);
            }
        }
        Shape::Carried => {
            let init = vec![Value::i64(0), Value::Arg(1)];
            let out = b.counted_loop_carried(
                Value::i64(0),
                Value::Arg(0),
                Value::i64(1),
                init,
                |b, iv, carried| {
                    let mut pools = Pools::new(iv, carried[1], data);
                    pools.ints.push(carried[0]);
                    for st in steps {
                        pools.emit(b, st, data, callees);
                    }
                    vec![*pools.ints.last().unwrap(), *pools.floats.last().unwrap()]
                },
            );
            let cond = b.cmp(CmpOp::Gt, out[0], 0i64);
            let merged = b.if_then_else(
                cond,
                vec![Type::F64, Type::I64, Type::F64],
                |b| vec![b.fadd(out[1], 1.0f64), out[0], Value::f64(f64::NAN)],
                |b| vec![Value::f64(-0.0), b.unary(UnOp::INeg, out[0]), out[1]],
            );
            let p = b.elem_addr(Value::Global(data), 3i64, Type::F64);
            b.call(sink, vec![p, merged[0]], Type::Void);
            b.store(p, merged[2]);
        }
        Shape::Nested => {
            let (first, second) = steps.split_at(steps.len() / 2);
            b.counted_loop(Value::i64(0), Value::Arg(0), Value::i64(1), |b, i| {
                let mut pools = Pools::new(i, Value::Arg(1), data);
                for st in first {
                    pools.emit(b, st, data, callees);
                }
                b.counted_loop(Value::i64(0), i, Value::i64(1), |b, j| {
                    pools.ints.push(j);
                    pools.emit(b, &Step::LoadF(pools.ints.len() - 1), data, callees);
                });
                for st in second {
                    pools.emit(b, st, data, callees);
                }
            });
        }
    }
    b.ret(None);
    m.add_function(b.finish());
    m
}

/// How [`respell`] renames the number `n` of a value `v<n>` or block
/// `bb<n>`.
#[derive(Clone, Copy, Debug)]
enum Spelling {
    /// `n` with a leading zero: not canonical, so looked up by name.
    LeadingZero,
    /// `n` plus a billion: canonical, but past any body's length.
    PastTheBody,
    /// `n` plus 2^64: more digits than a `u64` holds.
    Overflowing,
    /// `x<n>` after the prefix: no number at all.
    Named,
    /// `999 - n`: canonical numbers in reverse, so a name's number says
    /// nothing about where it is defined, and uses precede definitions.
    Reversed,
    /// By turns, `n % 5`: the printer's own `n`, a leading zero before
    /// `n - 1` (so `v05` and `v5` name two values), past the body,
    /// overflowing and named.
    Mixed,
}

fn spelling() -> impl Strategy<Value = Spelling> {
    prop_oneof![
        Just(Spelling::LeadingZero),
        Just(Spelling::PastTheBody),
        Just(Spelling::Overflowing),
        Just(Spelling::Named),
        Just(Spelling::Reversed),
        Just(Spelling::Mixed),
    ]
}

/// The name `prefix` + `n` respelled as `how` says; distinct numbers stay
/// distinct names.
fn respelled(prefix: &str, n: u64, how: Spelling) -> String {
    assert!(n < 1000, "generated functions have fewer than 1000 names");
    match how {
        Spelling::LeadingZero => format!("{prefix}0{n}"),
        Spelling::PastTheBody => format!("{prefix}{}", n + 1_000_000_000),
        Spelling::Overflowing => format!("{prefix}{}", u128::from(n) + (1u128 << 64)),
        Spelling::Named => format!("{prefix}x{n}"),
        Spelling::Reversed => format!("{prefix}{}", 999 - n),
        Spelling::Mixed => match n % 5 {
            0 => format!("{prefix}{n}"),
            1 => format!("{prefix}0{}", n - 1),
            2 => respelled(prefix, n, Spelling::PastTheBody),
            3 => respelled(prefix, n, Spelling::Overflowing),
            _ => respelled(prefix, n, Spelling::Named),
        },
    }
}

/// `text` with every value `v<n>` and block `bb<n>` (block parameters
/// `bb<n>p<m>` included) renamed as `how` says; everything else — globals,
/// arguments, literals, function names — is left alone.
fn respell(text: &str, how: Spelling) -> String {
    let is_name = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '@' | '-' | '+');
    let digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
    let mut out = String::with_capacity(text.len() * 2);
    let mut rest = text;
    while let Some(start) = rest.find(is_name) {
        out.push_str(&rest[..start]);
        let len = rest[start..].find(|c: char| !is_name(c)).unwrap_or(rest.len() - start);
        let word = &rest[start..start + len];
        let number = |s: &str| digits(s).then(|| s.parse::<u64>().expect("small"));
        if let Some(n) = word.strip_prefix('v').and_then(number) {
            out.push_str(&respelled("v", n, how));
        } else if let Some(n) = word.strip_prefix("bb").and_then(number) {
            out.push_str(&respelled("bb", n, how));
        } else if let Some((block, index)) =
            word.strip_prefix("bb").and_then(|w| w.split_once('p')).filter(|(_, i)| digits(i))
        {
            match number(block) {
                Some(n) => out.push_str(&format!("{}p{index}", respelled("bb", n, how))),
                None => out.push_str(word),
            }
        } else {
            out.push_str(word);
        }
        rest = &rest[start + len..];
    }
    out.push_str(rest);
    out
}

fn shape() -> impl Strategy<Value = Shape> {
    prop_oneof![Just(Shape::Straight), Just(Shape::Carried), Just(Shape::Nested)]
}

proptest! {
    // `PROPTEST_CASES` sets the number of cases (64 when unset).
    #![proptest_config(ProptestConfig::default())]

    /// Builder output always satisfies the structural verifier.
    #[test]
    fn builder_output_verifies(steps in proptest::collection::vec(step(), 0..40), shape in shape()) {
        let m = build_module(&steps, shape);
        verify_module(&m).unwrap();
    }

    /// A module whose instructions are numbered in placement order — what
    /// `compact` and the parser produce — survives the text exactly:
    /// `parse(print(m)) == m`, and printing the result gives the same bytes.
    #[test]
    fn compact_modules_round_trip_exactly(
        steps in proptest::collection::vec(step(), 0..40),
        carried: bool,
    ) {
        let m = build_module(&steps, if carried { Shape::Carried } else { Shape::Straight });
        let text = print_module(&m);
        let parsed = parse_module(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        verify_module(&parsed).unwrap();
        prop_assert_eq!(print_module(&parsed), text.clone(), "print(parse(text)) != text");
        prop_assert!(parsed == m, "parse(print(m)) != m:\n{}", text);
    }

    /// Parsing normalises instruction numbering (void instructions have ids
    /// but print namelessly, nested loops print out of creation order);
    /// after one parse, print → parse is the identity on text and module.
    #[test]
    fn one_parse_reaches_the_fixpoint(steps in proptest::collection::vec(step(), 0..40)) {
        let m = build_module(&steps, Shape::Nested);
        let parsed1 = parse_module(&print_module(&m)).expect("parses");
        verify_module(&parsed1).unwrap();
        let text2 = print_module(&parsed1);
        let parsed2 = parse_module(&text2).expect("re-parses");
        prop_assert_eq!(print_module(&parsed2), text2.clone(), "normalised form must be a fixpoint");
        prop_assert!(parsed2 == parsed1, "parse(print(f)) != f for a parsed f:\n{}", text2);
    }

    /// Globals named like ids (`gK`: the other global's id, their own, or
    /// one past the end) print every reference as `@gN`, which parses back
    /// to global N: `parse(print(m)) == m`.
    #[test]
    fn globals_named_like_ids_round_trip(
        steps in proptest::collection::vec(step(), 0..40),
        carried: bool,
        k in 0u32..4,
        d in 1u32..5,
    ) {
        let names = [format!("g{k}"), format!("g{}", (k + d) % 5)];
        let shape = if carried { Shape::Carried } else { Shape::Straight };
        let m = build_module_named(&steps, shape, [&names[0], &names[1]]);
        let text = print_module(&m);
        let parsed = parse_module(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        prop_assert!(parsed == m, "parse(print(m)) != m:\n{}", text);
    }

    /// The parser finds a name by its number only when the name is the
    /// printer's own spelling; renaming every value and block of a module's
    /// text — leading zeros, numbers past the body or past a `u64`, names
    /// without a number, numbers out of textual order — gives the module
    /// its canonical text gives.
    #[test]
    fn any_spelling_of_the_names_parses_to_the_same_module(
        steps in proptest::collection::vec(step(), 0..40),
        shape in shape(),
        how in spelling(),
    ) {
        let canonical = print_module(&build_module(&steps, shape));
        let module = parse_module(&canonical).expect("parses");
        let text = respell(&canonical, how);
        prop_assert!(text != canonical, "every name was respelled");
        let respelled = parse_module(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        prop_assert!(respelled == module, "{:?} spelling parsed differently:\n{}", how, text);
        prop_assert_eq!(print_module(&respelled), print_module(&module));
    }
}
