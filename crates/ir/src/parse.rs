//! Parser for the textual IR format produced by `crate::print`.
//!
//! The grammar is line-oriented and mirrors the printer exactly, so
//! `parse_module(&print_module(&m))` round-trips every module this workspace
//! produces. Besides golden tests and hand-written snippets, the parser reads
//! every module a client sends `daed` and every artifact the driver's disk
//! tier stores, so it is built to cost little more than a scan of the bytes:
//!
//! * **One cursor, one pass.** A byte cursor walks the text once, top to
//!   bottom: it skips blank and `//` lines and the runs of spaces, tabs and
//!   carriage returns around a line's parts, and cuts each line into its
//!   parts — result name, type, mnemonic, operands, edges — as it steps
//!   over them. A `//` comment takes a whole line; after other text it is
//!   part of that text. The cursor cuts only at ASCII bytes, so no input
//!   splits a UTF-8 sequence, and builds no list of lines.
//!   `tests/parse_golden.rs` pins the result or the error of thousands of
//!   respaced and byte-edited texts.
//! * **Ids in textual order.** Every definition — a block header, a named
//!   result, a void instruction, a function header — takes the next id when
//!   its line is read. A compacted function numbers its instructions in
//!   placement order, so this keeps `parse(print(f)) == f`: the invariant the
//!   driver's on-disk artifact cache relies on for bit-identical warm
//!   recompiles.
//! * **Names by number.** The printer spells values `v<n>`, blocks `bb<n>`
//!   and block parameters `bb<n>p<m>`. Such a canonical spelling — no
//!   leading zero, `n` below the byte length of the function's body —
//!   finds its id in a table indexed by `n`; every other spelling (any
//!   name the format allows) goes through a seeded map keyed by `&str`
//!   slices of the input. A definition takes at least a byte, so the
//!   tables grow only as far as the text reaches, never to a number a name
//!   makes up. A use that precedes its definition (a branch to a later
//!   block, a value defined further down, a call to a later function)
//!   takes a placeholder id and is patched when the function (for callees:
//!   the module) ends; a name that never gets defined is an error at the
//!   line of its first use.
//! * **Lists at their final size.** Each block's instruction list, each
//!   parameter list and each edge's arguments are allocated once, at
//!   their length.
//! * **Duplicates are errors.** A second definition of a value, block,
//!   function or global name fails at its line instead of rebinding the name.
//! * **`@gN` is global N.** The printer spells every global reference by
//!   id, so `@g<digits>` always means that id, even where some global is
//!   *named* `g<digits>`; only other spellings are looked up by name. A
//!   declaration must carry the id of its position (`global g0 …`,
//!   `global g1 …`, …).

use crate::function::Function;
use crate::inst::{BinOp, BlockCall, CmpOp, InstKind, Terminator, UnOp};
use crate::module::{GlobalData, GlobalInit, Module};
use crate::types::Type;
use crate::value::{BlockId, FuncId, GlobalId, InstId, Value};
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, Hasher};

/// A parse failure with a 1-based line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line where parsing failed.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn perr(line: usize, message: impl Into<String>) -> ParseError {
    ParseError { line, message: message.into() }
}

fn parse_type(line: usize, s: &str) -> Result<Type, ParseError> {
    Ok(match s {
        "i64" => Type::I64,
        "f64" => Type::F64,
        "bool" => Type::Bool,
        "ptr" => Type::Ptr,
        "void" => Type::Void,
        _ => return Err(perr(line, format!("unknown type `{s}`"))),
    })
}

/// The type after the `:` of a `name: ty` parameter.
fn param_type(line: usize, part: &str) -> Result<Type, ParseError> {
    let ty =
        part.split(':').nth(1).ok_or_else(|| perr(line, format!("malformed param `{part}`")))?;
    parse_type(line, ty.trim_ascii())
}

fn cmpop_from_mnemonic(line: usize, s: &str) -> Result<CmpOp, ParseError> {
    Ok(match s {
        "eq" => CmpOp::Eq,
        "ne" => CmpOp::Ne,
        "lt" => CmpOp::Lt,
        "le" => CmpOp::Le,
        "gt" => CmpOp::Gt,
        "ge" => CmpOp::Ge,
        other => return Err(perr(line, format!("unknown cmp predicate `{other}`"))),
    })
}

/// The digits of `g<digits>`, the printer's spelling of a global id.
fn global_id_digits(name: &str) -> Option<&str> {
    name.strip_prefix('g').filter(|n| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()))
}

/// Printed bytes per instruction and per block, about: a module of the
/// benchmark corpus spends 38 bytes of text on an instruction (its block
/// headers and terminators included) and 105 on a block. Capacities sized
/// by these take a doubling at worst.
const INST_BYTES: usize = 32;
const BLOCK_BYTES: usize = 96;

/// The byte length of the function body at the start of `rest`: up to its
/// closing `}`, or all of `rest`.
fn body_len(rest: &str) -> usize {
    rest.find('}').unwrap_or(rest.len())
}

/// The block a header opens: the entry for the first, a new block after
/// placing the open block's instructions for every other.
fn open_block(func: &mut Function, open: Option<(BlockId, usize)>) -> BlockId {
    match open {
        None => func.entry,
        Some((open, first)) => {
            place(func, open, first);
            func.add_block()
        }
    }
}

/// Places the instructions with ids `first..` — all those created since
/// `bb`'s header — in `bb`, in id order.
fn place(func: &mut Function, bb: BlockId, first: usize) {
    func.block_mut(bb).insts = (first..func.num_insts()).map(|i| InstId(i as u32)).collect();
}

/// Whitespace inside a line: what `str::trim_ascii` takes off its ends,
/// less the `\n` that ends it.
fn is_blank(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\r' | b'\x0c')
}

/// A byte cursor over the text, or over a part of one line of it. A line
/// ends at `\n` or at the end of the text. The cursor splits only at ASCII
/// bytes, so no slice it takes starts or ends inside a UTF-8 sequence.
///
/// The four scans a line's parts are cut with (`rest`, `until`, `word`,
/// `part`) are inlined into every caller: left as calls they cost a parse
/// of the corpus texts about 5 %.
struct Cursor<'a> {
    text: &'a str,
    at: usize,
    /// The 1-based number of the line `at` is on.
    line: usize,
}

impl<'a> Cursor<'a> {
    fn new(text: &'a str) -> Self {
        Cursor { text, at: 0, line: 1 }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.at).copied()
    }

    fn at_eol(&self) -> bool {
        matches!(self.peek(), None | Some(b'\n'))
    }

    fn starts_with(&self, word: &[u8]) -> bool {
        self.text.as_bytes()[self.at..].starts_with(word)
    }

    fn skip_blanks(&mut self) {
        while self.peek().is_some_and(is_blank) {
            self.at += 1;
        }
    }

    /// Steps to the first byte of the next line that is neither blank nor
    /// a `//` comment and returns its number; `None` at the end of the text.
    fn next_line(&mut self) -> Option<usize> {
        loop {
            self.skip_blanks();
            match self.peek()? {
                b'\n' => {
                    self.at += 1;
                    self.line += 1;
                }
                b'/' if self.starts_with(b"//") => {
                    self.rest();
                }
                _ => return Some(self.line),
            }
        }
    }

    /// The rest of the line without its trailing blanks; the cursor is left
    /// at the line's end.
    #[inline(always)]
    fn rest(&mut self) -> &'a str {
        let start = self.at;
        let bytes = self.text.as_bytes();
        while bytes.get(self.at).is_some_and(|&b| b != b'\n') {
            self.at += 1;
        }
        self.text[start..self.at].trim_ascii_end()
    }

    /// The text up to the next `byte` on the line, with the cursor past
    /// that byte; `None`, with the cursor at the line's end, when there is
    /// none.
    #[inline(always)]
    fn until(&mut self, byte: u8) -> Option<&'a str> {
        let start = self.at;
        let bytes = self.text.as_bytes();
        while let Some(&b) = bytes.get(self.at) {
            if b == byte {
                self.at += 1;
                return Some(&self.text[start..self.at - 1]);
            }
            if b == b'\n' {
                break;
            }
            self.at += 1;
        }
        None
    }

    /// The text up to the next space, with the cursor past it and the
    /// blanks after it. A space that only blanks follow is the end of the
    /// line, not of the word: the word is then the rest of the line.
    #[inline(always)]
    fn word(&mut self) -> &'a str {
        let start = self.at;
        let bytes = self.text.as_bytes();
        while bytes.get(self.at).is_some_and(|&b| b != b' ' && b != b'\n') {
            self.at += 1;
        }
        let word = &self.text[start..self.at];
        self.skip_blanks();
        if self.at_eol() {
            word.trim_ascii_end()
        } else {
            word
        }
    }

    /// Steps over `word` (a keyword and its space) and the blanks after it
    /// when the line starts with them and goes on past them.
    fn keyword(&mut self, word: &[u8]) -> bool {
        if !self.starts_with(word) {
            return false;
        }
        let start = self.at;
        self.at += word.len();
        self.skip_blanks();
        if self.at_eol() {
            self.at = start;
            return false;
        }
        true
    }

    /// A `ret` line: `Some(None)` for a bare `ret`, `Some(Some(value))` for
    /// `ret value`; `None`, the cursor unmoved, for any other line.
    fn ret(&mut self) -> Option<Option<&'a str>> {
        if !self.starts_with(b"ret") {
            return None;
        }
        let start = self.at;
        self.at += 3;
        let spaced = self.peek() == Some(b' ');
        self.skip_blanks();
        if self.at_eol() {
            Some(None)
        } else if spaced {
            Some(Some(self.rest()))
        } else {
            self.at = start;
            None
        }
    }

    /// The next part of a comma-separated list that runs to the end of the
    /// line, trimmed: up to a comma outside parentheses, or to the line's
    /// end. `None` after the last part; an empty last part is none.
    #[inline(always)]
    fn part(&mut self) -> Option<&'a str> {
        self.skip_blanks();
        if self.at_eol() {
            return None;
        }
        let bytes = self.text.as_bytes();
        let start = self.at;
        let mut depth = 0usize;
        while let Some(&b) = bytes.get(self.at) {
            match b {
                b'\n' => break,
                b',' if depth == 0 => {
                    self.at += 1;
                    return Some(self.text[start..self.at - 1].trim_ascii_end());
                }
                b'(' => depth += 1,
                b')' => depth = depth.saturating_sub(1),
                _ => {}
            }
            self.at += 1;
        }
        Some(self.text[start..self.at].trim_ascii_end())
    }

    /// Exactly `N` parts up to the line's end, or `None`.
    fn parts<const N: usize>(&mut self) -> Option<[&'a str; N]> {
        let mut parts = [""; N];
        for part in &mut parts {
            *part = self.part()?;
        }
        self.part().is_none().then_some(parts)
    }
}

/// What an instruction mnemonic names.
enum Mnemonic {
    Binary(BinOp),
    Unary(UnOp),
    Cmp,
    Select,
    PtrAdd,
    Load,
    Store,
    Prefetch,
    Call,
}

/// The instruction `op` names, in one match.
fn mnemonic(op: &str) -> Option<Mnemonic> {
    use BinOp::*;
    use Mnemonic::{Binary, Unary};
    use UnOp::*;
    Some(match op {
        "iadd" => Binary(IAdd),
        "isub" => Binary(ISub),
        "imul" => Binary(IMul),
        "idiv" => Binary(IDiv),
        "irem" => Binary(IRem),
        "and" => Binary(And),
        "or" => Binary(Or),
        "xor" => Binary(Xor),
        "shl" => Binary(Shl),
        "ashr" => Binary(AShr),
        "fadd" => Binary(FAdd),
        "fsub" => Binary(FSub),
        "fmul" => Binary(FMul),
        "fdiv" => Binary(FDiv),
        "fmin" => Binary(FMin),
        "fmax" => Binary(FMax),
        "ineg" => Unary(INeg),
        "fneg" => Unary(FNeg),
        "fsqrt" => Unary(FSqrt),
        "itof" => Unary(IToF),
        "ftoi" => Unary(FToI),
        "ptoi" => Unary(PtrToInt),
        "itop" => Unary(IntToPtr),
        "not" => Unary(Not),
        "icmp" => Mnemonic::Cmp,
        "select" => Mnemonic::Select,
        "ptradd" => Mnemonic::PtrAdd,
        "load" => Mnemonic::Load,
        "store" => Mnemonic::Store,
        "prefetch" => Mnemonic::Prefetch,
        "call" => Mnemonic::Call,
        _ => return None,
    })
}

/// Hashes names for the symbol maps: a multiply-fold over 8-byte words,
/// started from a per-parse random seed. Names are a few bytes long, where
/// this costs a third of SipHash, and a client that cannot see the seed
/// cannot pick names that collide.
struct NameHasher(u64);

impl NameHasher {
    fn mix(&mut self, word: u64) {
        let p = u128::from(self.0 ^ word) * 0x517c_c1b7_2722_0a95;
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }
}

impl Hasher for NameHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.mix(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        tail[..words.remainder().len()].copy_from_slice(words.remainder());
        self.mix(u64::from_le_bytes(tail));
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The seed every [`NameHasher`] of one parse starts from.
#[derive(Clone, Copy)]
struct NameHash(u64);

impl BuildHasher for NameHash {
    type Hasher = NameHasher;

    fn build_hasher(&self) -> NameHasher {
        NameHasher(self.0)
    }
}

/// A symbol map keyed by names borrowed from the input.
type Names<'a, V> = HashMap<&'a str, V, NameHash>;

/// Empties a map of one function's names for the next function. A clear
/// costs the map's capacity, so a map that a large function grew is dropped
/// instead: otherwise every small function after it would pay for it again.
fn reset<V>(map: &mut Names<'_, V>) {
    if map.capacity() > 4 * map.len() + 64 {
        *map = HashMap::with_hasher(*map.hasher());
    } else {
        map.clear();
    }
}

/// Ids at or above this are placeholders for names used before their
/// definition: placeholder `PENDING + k` stands for the `k`-th entry of a
/// pending list. Every definition and every use takes at least one byte of
/// text, and [`parse_module`] refuses texts of `PENDING` bytes or more, so
/// no real id or pending index gets there.
const PENDING: u32 = 1 << 31;

/// Names used before their definition, in order of use, with the line of
/// each use.
#[derive(Default)]
struct Pending<'a>(Vec<(&'a str, usize)>);

impl<'a> Pending<'a> {
    /// Records a use of `name`; returns the placeholder index.
    fn push(&mut self, name: &'a str, line: usize) -> u32 {
        self.0.push((name, line));
        PENDING + (self.0.len() - 1) as u32
    }
}

/// Resolves a placeholder index into the list [`Ids::resolve`] built.
fn resolved<V: Copy>(ids: &[V], placeholder: u32) -> V {
    ids[(placeholder - PENDING) as usize]
}

/// No id yet, in an [`Ids`] table.
const NONE: u32 = u32::MAX;

/// The number `n` of a canonical spelling `<prefix><n>` — decimal digits,
/// no leading zero — when `n` is below `limit`.
fn canonical(name: &str, prefix: &str, limit: usize) -> Option<usize> {
    number(name.strip_prefix(prefix)?.as_bytes()).filter(|&n| n < limit)
}

/// The value of `digits`, decimal with no leading zero.
fn number(digits: &[u8]) -> Option<usize> {
    // Ten digits cannot overflow a `u64`; a longer number is past any limit.
    if digits.is_empty() || digits.len() > 10 || (digits[0] == b'0' && digits.len() > 1) {
        return None;
    }
    let mut n = 0u64;
    for &d in digits {
        if !d.is_ascii_digit() {
            return None;
        }
        n = n * 10 + u64::from(d - b'0');
    }
    usize::try_from(n).ok()
}

/// The current function's names of one kind — values or blocks — and its
/// uses before definition. A canonical spelling below the table's length
/// is looked up by its number, every other spelling in the map, so each
/// name has one place to be found in.
struct Ids<'a> {
    prefix: &'static str,
    /// Canonical numbers below this are looked up in `table`, which grows
    /// to the largest one defined.
    limit: usize,
    table: Vec<u32>,
    names: Names<'a, u32>,
    pending: Pending<'a>,
    /// What [`Ids::resolve`] found for each pending use.
    resolved: Vec<u32>,
}

impl<'a> Ids<'a> {
    /// Ids for about `expected` names per function.
    fn new(prefix: &'static str, hash: NameHash, expected: usize) -> Self {
        Ids {
            prefix,
            limit: 0,
            table: Vec::with_capacity(expected),
            names: HashMap::with_hasher(hash),
            pending: Pending(Vec::with_capacity(expected)),
            resolved: Vec::with_capacity(expected),
        }
    }

    /// Empties the names for a function whose body is `len` bytes long:
    /// one definition takes at least one byte, so no canonical number at or
    /// past it is needed to number them.
    fn reset(&mut self, len: usize) {
        self.limit = len;
        self.table.clear();
        reset(&mut self.names);
        self.pending.0.clear();
    }

    fn get(&self, name: &str) -> Option<u32> {
        match canonical(name, self.prefix, self.limit) {
            Some(n) => self.table.get(n).copied().filter(|&id| id != NONE),
            None => self.names.get(name).copied(),
        }
    }

    /// Binds `name` to `id`; `false` when it was bound already.
    fn define(&mut self, name: &'a str, id: u32) -> bool {
        match canonical(name, self.prefix, self.limit) {
            Some(n) => {
                if n >= self.table.len() {
                    self.table.resize(n + 1, NONE);
                }
                std::mem::replace(&mut self.table[n], id) == NONE
            }
            None => self.names.insert(name, id).is_none(),
        }
    }

    /// The id of `name`, or a placeholder for a use before its definition.
    fn refer(&mut self, name: &'a str, line: usize) -> u32 {
        match self.get(name) {
            Some(id) => id,
            None => self.pending.push(name, line),
        }
    }

    /// Looks every pending use up; fails on the first name still
    /// undefined, naming it as `what`.
    fn resolve(&mut self, what: &str) -> Result<(), ParseError> {
        let mut resolved = std::mem::take(&mut self.resolved);
        resolved.clear();
        for &(name, line) in &self.pending.0 {
            let id =
                self.get(name).ok_or_else(|| perr(line, format!("unknown {what} `{name}`")))?;
            resolved.push(id);
        }
        self.resolved = resolved;
        Ok(())
    }
}

struct Parser<'a> {
    funcs: Names<'a, FuncId>,
    globals: Names<'a, GlobalId>,
    pending_funcs: Pending<'a>,
    /// The current function's blocks and named results.
    blocks: Ids<'a>,
    insts: Ids<'a>,
    /// Whether a value of the current function was used before its
    /// definition (a block named before its header only needs the
    /// terminators patched).
    forward_values: bool,
    /// The values of the operand list being read.
    values: Vec<Value>,
    /// The parameter types of the block header being read.
    types: Vec<Type>,
}

impl<'a> Parser<'a> {
    /// A parser for a text of `len` bytes.
    fn new(len: usize) -> Self {
        let hash = NameHash(RandomState::new().hash_one(0u8));
        Parser {
            funcs: HashMap::with_hasher(hash),
            globals: HashMap::with_hasher(hash),
            pending_funcs: Pending::default(),
            blocks: Ids::new("bb", hash, len / BLOCK_BYTES),
            insts: Ids::new("v", hash, len / INST_BYTES),
            forward_values: false,
            values: Vec::with_capacity(8),
            types: Vec::with_capacity(8),
        }
    }

    fn block_ref(&mut self, line: usize, name: &'a str) -> BlockId {
        BlockId(self.blocks.refer(name, line))
    }

    fn value(&mut self, line: usize, tok: &'a str) -> Result<Value, ParseError> {
        let tok = tok.trim_ascii();
        match tok.as_bytes().first() {
            Some(b'v') => {
                let id = match self.insts.get(tok) {
                    Some(id) => id,
                    None => {
                        self.forward_values = true;
                        self.insts.pending.push(tok, line)
                    }
                };
                return Ok(Value::Inst(InstId(id)));
            }
            // Block params print as `bbNpM`.
            Some(b'b') if tok.starts_with("bb") => {
                if let Some((block, index)) = tok.rsplit_once('p') {
                    if let Ok(index) = index.parse::<u32>() {
                        let block = self.block_ref(line, block);
                        self.forward_values |= block.0 >= PENDING;
                        return Ok(Value::BlockParam { block, index });
                    }
                }
            }
            Some(b'@') => {
                let rest = &tok[1..];
                let global = match global_id_digits(rest) {
                    Some(digits) => digits.parse().ok().map(GlobalId),
                    None => self.globals.get(rest).copied(),
                };
                return global
                    .map(Value::Global)
                    .ok_or_else(|| perr(line, format!("unknown global `{tok}`")));
            }
            Some(b'a') => {
                if let Some(i) = tok.strip_prefix("arg").and_then(|n| n.parse::<u32>().ok()) {
                    return Ok(Value::Arg(i));
                }
            }
            _ => {}
        }
        match tok {
            "true" => return Ok(Value::ConstBool(true)),
            "false" => return Ok(Value::ConstBool(false)),
            _ => {}
        }
        if let Ok(i) = tok.parse::<i64>() {
            return Ok(Value::ConstI64(i));
        }
        if let Ok(f) = tok.parse::<f64>() {
            return Ok(Value::f64(f));
        }
        Err(perr(line, format!("cannot parse value `{tok}`")))
    }

    /// Every value of an operand list, in a list of its length.
    fn value_list(&mut self, line: usize, list: &'a str) -> Result<Vec<Value>, ParseError> {
        let mut values = std::mem::take(&mut self.values);
        values.clear();
        let mut parts = Cursor::new(list);
        while let Some(part) = parts.part() {
            values.push(self.value(line, part)?);
        }
        let list = values.to_vec();
        self.values = values;
        Ok(list)
    }

    /// The edge from `c` to the line's end: `NAME` or `NAME(args)`.
    fn block_call(&mut self, line: usize, c: &mut Cursor<'a>) -> Result<BlockCall, ParseError> {
        c.skip_blanks();
        let start = c.at;
        let Some(name) = c.until(b'(') else {
            let name = c.text[start..c.at].trim_ascii_end();
            return Ok(BlockCall::new(self.block_ref(line, name)));
        };
        let after = c.rest();
        let Some(args) = after.strip_suffix(')') else {
            let edge = &c.text[start..start + name.len() + 1 + after.len()];
            return Err(perr(line, format!("unterminated edge args in `{edge}`")));
        };
        let block = self.block_ref(line, name);
        Ok(BlockCall::with_args(block, self.value_list(line, args)?))
    }

    /// `global gN NAME : LEN x TY`
    fn global(
        &mut self,
        module: &mut Module,
        line: usize,
        rest: &'a str,
    ) -> Result<(), ParseError> {
        let mut parts = rest.split_ascii_whitespace();
        let id_tok = parts.next().ok_or_else(|| perr(line, "missing global id"))?;
        let id = GlobalId(module.num_globals() as u32);
        let canonical = global_id_digits(id_tok)
            .is_some_and(|n| n.parse() == Ok(id.0) && (n == "0" || !n.starts_with('0')));
        if !canonical {
            return Err(perr(line, format!("global `{id_tok}` declared as global {}", id.0)));
        }
        let name = parts.next().ok_or_else(|| perr(line, "missing global name"))?;
        if parts.next() != Some(":") {
            return Err(perr(line, "expected `:` in global"));
        }
        let len: u64 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| perr(line, "bad global length"))?;
        if parts.next() != Some("x") {
            return Err(perr(line, "expected `x` in global"));
        }
        let ty = parse_type(line, parts.next().ok_or_else(|| perr(line, "missing elem type"))?)?;
        if self.globals.insert(name, id).is_some() {
            return Err(perr(line, format!("duplicate global `{name}`")));
        }
        module.add_global_init(GlobalData {
            name: name.to_string(),
            elem_ty: ty,
            len,
            init: GlobalInit::Zero,
        });
        Ok(())
    }

    /// Parses one function, from its header line `header` (the cursor at
    /// its end) through its closing `}`.
    fn function(
        &mut self,
        c: &mut Cursor<'a>,
        id: FuncId,
        hln: usize,
        header: &'a str,
    ) -> Result<Function, ParseError> {
        let (is_task, header) = match header.strip_prefix("task ") {
            Some(h) => (true, h),
            None => (false, header),
        };
        let header = header.strip_prefix("fn ").ok_or_else(|| perr(hln, "expected `fn`"))?;
        let (name, sig) = header.split_once('(').ok_or_else(|| perr(hln, "missing `(`"))?;
        let name = name.trim_ascii();
        let (params_text, after) = sig.split_once(')').ok_or_else(|| perr(hln, "missing `)`"))?;
        let mut params = Vec::new();
        let mut parts = Cursor::new(params_text);
        while let Some(part) = parts.part() {
            params.push(param_type(hln, part)?);
        }
        let ret = match after.trim_ascii().strip_prefix("->") {
            Some(r) => parse_type(hln, r.trim_end_matches('{').trim_ascii())?,
            None => Type::Void,
        };
        if self.funcs.insert(name, id).is_some() {
            return Err(perr(hln, format!("duplicate function `{name}`")));
        }
        let mut func = Function::new(name, params, ret);
        func.is_task = is_task;
        let len = body_len(c.text.get(c.at + 1..).unwrap_or(""));
        func.reserve(len / BLOCK_BYTES, len / INST_BYTES);
        self.blocks.reset(len);
        self.insts.reset(len);
        self.forward_values = false;
        // The open block and the id of its first instruction: ids are
        // textual, so a block's instructions are the ids read since its
        // header, placed in one go when the next header (or `}`) closes it.
        let mut cur: Option<(BlockId, usize)> = None;
        loop {
            let ln = c.next_line().ok_or_else(|| perr(hln, "unterminated function body"))?;
            let start = c.at;
            match c.peek() {
                Some(b'}') => {
                    c.at += 1;
                    c.skip_blanks();
                    if c.at_eol() {
                        break;
                    }
                }
                Some(b'b') if c.starts_with(b"bb") => {
                    if let Some(l) = c.rest().strip_suffix(':') {
                        let bb = open_block(&mut func, cur);
                        self.header(&mut func, bb, ln, l)?;
                        cur = Some((bb, func.num_insts()));
                        continue;
                    }
                }
                _ => {}
            }
            c.at = start;
            let (bb, _) = cur.ok_or_else(|| perr(ln, "statement before first block header"))?;
            self.statement(&mut func, bb, ln, c)?;
        }
        if let Some((open, first)) = cur {
            place(&mut func, open, first);
        }
        self.resolve_function(&mut func)?;
        Ok(func)
    }

    /// Names `bb` after the header line `l` (its trailing `:` taken off),
    /// `bbN` or `bbN(bbNp0: ty, …)`, and gives it the parameters listed.
    fn header(
        &mut self,
        func: &mut Function,
        bb: BlockId,
        line: usize,
        l: &'a str,
    ) -> Result<(), ParseError> {
        let l = l.trim_end_matches(':');
        let (name, params) = match l.split_once('(') {
            Some((name, params)) => (name, params.trim_end_matches(')')),
            None => (l, ""),
        };
        if !self.blocks.define(name, bb.0) {
            return Err(perr(line, format!("duplicate block `{name}`")));
        }
        self.types.clear();
        let mut parts = Cursor::new(params);
        while let Some(part) = parts.part() {
            self.types.push(param_type(line, part)?);
        }
        func.block_mut(bb).params = self.types.to_vec();
        Ok(())
    }

    /// The statement at `c` through its line's end, in block `bb`: a
    /// terminator, `vN: ty = op …`, or an instruction without a result.
    fn statement(
        &mut self,
        func: &mut Function,
        bb: BlockId,
        ln: usize,
        c: &mut Cursor<'a>,
    ) -> Result<(), ParseError> {
        let term = if c.peek() == Some(b'v') {
            let name = c.until(b':').ok_or_else(|| perr(ln, "missing result type"))?;
            let ty = c.until(b'=').ok_or_else(|| perr(ln, "missing `=`"))?;
            let ty = parse_type(ln, ty.trim_ascii())?;
            let kind = self.inst(ln, c)?;
            let name = name.trim_ascii_end();
            let inst = func.create_inst(kind, ty);
            if !self.insts.define(name, inst.0) {
                return Err(perr(ln, format!("duplicate value `{name}`")));
            }
            return Ok(());
        } else if c.keyword(b"jump ") {
            Terminator::Jump(self.block_call(ln, c)?)
        } else if c.keyword(b"br ") {
            let [cond, then_dest, else_dest] =
                c.parts().ok_or_else(|| perr(ln, "br expects cond and two targets"))?;
            Terminator::Branch {
                cond: self.value(ln, cond)?,
                then_dest: self.block_call(ln, &mut Cursor::new(then_dest))?,
                else_dest: self.block_call(ln, &mut Cursor::new(else_dest))?,
            }
        } else if let Some(value) = c.ret() {
            Terminator::Ret(value.map(|v| self.value(ln, v)).transpose()?)
        } else {
            let kind = self.inst(ln, c)?;
            func.create_inst(kind, Type::Void);
            return Ok(());
        };
        func.set_terminator(bb, term);
        Ok(())
    }

    /// The instruction at `c` through its line's end: a mnemonic and its
    /// operands.
    fn inst(&mut self, ln: usize, c: &mut Cursor<'a>) -> Result<InstKind, ParseError> {
        c.skip_blanks();
        let op = c.word();
        Ok(match mnemonic(op) {
            Some(Mnemonic::Binary(bin)) => {
                let [lhs, rhs] =
                    c.parts().ok_or_else(|| perr(ln, format!("`{op}` expects two operands")))?;
                InstKind::Binary { op: bin, lhs: self.value(ln, lhs)?, rhs: self.value(ln, rhs)? }
            }
            Some(Mnemonic::Unary(op)) => InstKind::Unary { op, operand: self.value(ln, c.rest())? },
            Some(Mnemonic::Cmp) => {
                let pred = c.word();
                if c.at_eol() {
                    return Err(perr(ln, "icmp expects predicate"));
                }
                let op = cmpop_from_mnemonic(ln, pred)?;
                let [lhs, rhs] = c.parts().ok_or_else(|| perr(ln, "icmp expects two operands"))?;
                InstKind::Cmp { op, lhs: self.value(ln, lhs)?, rhs: self.value(ln, rhs)? }
            }
            Some(Mnemonic::Select) => {
                let [cond, then_value, else_value] =
                    c.parts().ok_or_else(|| perr(ln, "select expects three operands"))?;
                InstKind::Select {
                    cond: self.value(ln, cond)?,
                    then_value: self.value(ln, then_value)?,
                    else_value: self.value(ln, else_value)?,
                }
            }
            Some(Mnemonic::PtrAdd) => {
                let [base, offset] =
                    c.parts().ok_or_else(|| perr(ln, "ptradd expects two operands"))?;
                InstKind::PtrAdd { base: self.value(ln, base)?, offset: self.value(ln, offset)? }
            }
            Some(Mnemonic::Load) => InstKind::Load { addr: self.value(ln, c.rest())? },
            Some(Mnemonic::Store) => {
                let [addr, value] =
                    c.parts().ok_or_else(|| perr(ln, "store expects two operands"))?;
                InstKind::Store { addr: self.value(ln, addr)?, value: self.value(ln, value)? }
            }
            Some(Mnemonic::Prefetch) => InstKind::Prefetch { addr: self.value(ln, c.rest())? },
            Some(Mnemonic::Call) => {
                let name = c.until(b'(').ok_or_else(|| perr(ln, "call expects `(`"))?;
                let args =
                    c.rest().strip_suffix(')').ok_or_else(|| perr(ln, "call expects `)`"))?;
                let callee = self.callee(ln, name.trim_ascii_end());
                InstKind::Call { callee, args: self.value_list(ln, args)? }
            }
            None => return Err(perr(ln, format!("unknown instruction `{op}`"))),
        })
    }

    fn callee(&mut self, line: usize, name: &'a str) -> FuncId {
        match self.funcs.get(name) {
            Some(&f) => f,
            None => FuncId(self.pending_funcs.push(name, line)),
        }
    }

    /// Patches the current function's placeholders with the blocks and
    /// values defined after their uses.
    fn resolve_function(&mut self, func: &mut Function) -> Result<(), ParseError> {
        if self.insts.pending.0.is_empty() && self.blocks.pending.0.is_empty() {
            return Ok(());
        }
        // Report the earliest use of an undefined name, whichever kind.
        match (self.insts.resolve("value"), self.blocks.resolve("block")) {
            (Ok(()), Ok(())) => {}
            (Err(e), Ok(())) | (Ok(()), Err(e)) => return Err(e),
            (Err(a), Err(b)) => return Err(if a.line <= b.line { a } else { b }),
        }
        let (insts, blocks) = (&self.insts.resolved[..], &self.blocks.resolved[..]);
        let value = |v: Value| match v {
            Value::Inst(id) if id.0 >= PENDING => Value::Inst(InstId(resolved(insts, id.0))),
            Value::BlockParam { block, index } if block.0 >= PENDING => {
                Value::BlockParam { block: BlockId(resolved(blocks, block.0)), index }
            }
            other => other,
        };
        let edge = |dest: &mut BlockCall| {
            if dest.block.0 >= PENDING {
                dest.block = BlockId(resolved(blocks, dest.block.0));
            }
            for a in &mut dest.args {
                *a = value(*a);
            }
        };
        if self.forward_values {
            for i in 0..func.num_insts() {
                func.inst_mut(InstId(i as u32)).kind.map_operands(value);
            }
        }
        for bb in func.block_ids() {
            match &mut func.block_mut(bb).term {
                Some(Terminator::Jump(dest)) => edge(dest),
                Some(Terminator::Branch { cond, then_dest, else_dest }) => {
                    *cond = value(*cond);
                    edge(then_dest);
                    edge(else_dest);
                }
                Some(Terminator::Ret(Some(v))) => *v = value(*v),
                Some(Terminator::Ret(None)) | None => {}
            }
        }
        Ok(())
    }

    /// Patches calls to functions defined after the caller.
    fn resolve_callees(&self, module: &mut Module) -> Result<(), ParseError> {
        if self.pending_funcs.0.is_empty() {
            return Ok(());
        }
        let callees = self
            .pending_funcs
            .0
            .iter()
            .map(|&(name, line)| {
                self.funcs
                    .get(name)
                    .copied()
                    .ok_or_else(|| perr(line, format!("unknown callee `{name}`")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        for f in 0..module.num_funcs() {
            let func = module.func_mut(FuncId(f as u32));
            for i in 0..func.num_insts() {
                if let InstKind::Call { callee, .. } = &mut func.inst_mut(InstId(i as u32)).kind {
                    if callee.0 >= PENDING {
                        *callee = resolved(&callees, callee.0);
                    }
                }
            }
        }
        Ok(())
    }
}

/// Parses a module in the textual format of [`crate::print::print_module`].
///
/// # Errors
///
/// Returns a [`ParseError`] with the offending line on malformed input.
///
/// # Examples
///
/// ```
/// let text = "
/// global g0 a : 8 x f64
///
/// task fn touch() {
/// bb0:
///   v0: ptr = ptradd @g0, 16
///   prefetch v0
///   ret
/// }
/// ";
/// let module = dae_ir::parse::parse_module(text)?;
/// assert_eq!(module.num_funcs(), 1);
/// # Ok::<(), dae_ir::parse::ParseError>(())
/// ```
pub fn parse_module(text: &str) -> Result<Module, ParseError> {
    if text.len() >= PENDING as usize {
        return Err(perr(1, "module text of 2 GiB or more"));
    }
    let mut p = Parser::new(text.len());
    let mut c = Cursor::new(text);
    let mut module = Module::new();
    while let Some(ln) = c.next_line() {
        let l = c.rest();
        if let Some(rest) = l.strip_prefix("global ") {
            p.global(&mut module, ln, rest)?;
        } else if l.starts_with("fn ") || l.starts_with("task fn ") {
            let id = FuncId(module.num_funcs() as u32);
            let func = p.function(&mut c, id, ln, l)?;
            module.add_function(func);
        } else {
            return Err(perr(ln, format!("unexpected line `{l}`")));
        }
    }
    p.resolve_callees(&mut module)?;
    Ok(module)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::print::print_module;

    fn round_trip(m: &Module) {
        let text = print_module(m);
        let parsed = parse_module(&text).unwrap_or_else(|e| panic!("{e}\n---\n{text}"));
        let text2 = print_module(&parsed);
        assert_eq!(text, text2, "round trip changed the module");
        crate::verify::verify_module(&parsed).unwrap();
    }

    #[test]
    fn round_trip_loop_function() {
        let mut m = Module::new();
        let g = m.add_global("a", Type::F64, 128);
        let mut b = FunctionBuilder::new("t", vec![Type::I64], Type::Void);
        b.set_task();
        let out = b.counted_loop_carried(
            Value::i64(0),
            Value::Arg(0),
            Value::i64(1),
            vec![Value::f64(0.0)],
            |b, i, c| {
                let addr = b.elem_addr(Value::Global(g), i, Type::F64);
                let x = b.load(Type::F64, addr);
                vec![b.fadd(c[0], x)]
            },
        );
        let dst = b.ptr_add(Value::Global(g), 0i64);
        b.store(dst, out[0]);
        b.ret(None);
        m.add_function(b.finish());
        round_trip(&m);
    }

    #[test]
    fn round_trip_calls_and_branches() {
        let mut m = Module::new();
        let mut cb = FunctionBuilder::new("helper", vec![Type::I64], Type::I64);
        let d = cb.imul(Value::Arg(0), 2i64);
        cb.ret(Some(d));
        let callee = m.add_function(cb.finish());

        let mut b = FunctionBuilder::new("main_like", vec![Type::I64], Type::I64);
        let c = b.cmp(CmpOp::Gt, Value::Arg(0), 10i64);
        let merged = b.if_then_else(
            c,
            vec![Type::I64],
            |b| vec![b.call(callee, vec![Value::Arg(0)], Type::I64).unwrap()],
            |_| vec![Value::i64(0)],
        );
        b.ret(Some(merged[0]));
        m.add_function(b.finish());
        round_trip(&m);
    }

    #[test]
    fn parses_handwritten_snippet() {
        let text = "
global g0 buf : 4 x i64

task fn scan(arg0: i64) {
bb0:
  jump bb1(0)
bb1(bb1p0: i64):
  v0: bool = icmp lt bb1p0, arg0
  br v0, bb2, bb3
bb2:
  v1: i64 = imul bb1p0, 8
  v2: ptr = ptradd @g0, v1
  prefetch v2
  v3: i64 = iadd bb1p0, 1
  jump bb1(v3)
bb3:
  ret
}
";
        let m = parse_module(text).unwrap();
        crate::verify::verify_module(&m).unwrap();
        let f = m.func(m.func_by_name("scan").unwrap());
        assert!(f.is_task);
        assert_eq!(f.num_blocks(), 4);
    }

    #[test]
    fn reports_errors_with_line() {
        let text = "fn broken() {\nbb0:\n  v0: i64 = frobnicate 1, 2\n  ret\n}\n";
        let e = parse_module(text).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("frobnicate"));
    }

    #[test]
    fn parses_float_and_bool_literals() {
        let text = "
fn f() -> f64 {
bb0:
  v0: f64 = fadd 1.5, 2.25
  v1: f64 = select true, v0, 0.0
  ret v1
}
";
        let m = parse_module(text).unwrap();
        crate::verify::verify_module(&m).unwrap();
    }

    /// The error of parsing `text`, which must fail.
    fn error(text: &str) -> ParseError {
        parse_module(text).expect_err("must not parse")
    }

    #[test]
    fn bodies_of_any_shape_size_the_arenas_without_failing() {
        // An empty body, a body cut off before its `}`, and a header line
        // without its newline: the size estimate reads whatever is there.
        assert_eq!(body_len("}\n"), 0);
        assert_eq!(body_len(""), 0);
        assert_eq!(body_len("bb0:\n  ret\n}\n"), 11);
        assert_eq!(body_len("bb0:\n  ret\n"), 11);
        // Neither text panics; the empty body is the verifier's to refuse.
        let empty = parse_module("fn f() {\n}\n").expect("parses");
        assert!(crate::verify::verify_module(&empty).is_err());
        assert!(parse_module("fn f() {\nbb0:").is_err());
    }

    #[test]
    fn duplicate_global_names_are_rejected() {
        let text = "global g0 a : 8 x i64\nglobal g1 a : 16 x f64\n\n\
                    task fn t() {\nbb0:\n  v0: ptr = ptradd @a, 8\n  ret\n}\n";
        let e = error(text);
        assert_eq!(e.line, 2, "{e}");
        assert!(e.message.contains("duplicate global `a`"), "{e}");
    }

    #[test]
    fn global_ids_win_over_global_names() {
        // Global 0 is *named* `g1`; `@g1` is still global 1, and the name
        // `g1` is only reachable as the id it spells.
        let text = "global g0 g1 : 8 x i64\nglobal g1 a : 8 x i64\n\n\
                    task fn t() {\nbb0:\n  prefetch @g1\n  prefetch @a\n  prefetch @g0\n  ret\n}\n";
        let m = parse_module(text).expect("parses");
        let t = m.func(FuncId(0));
        let addrs: Vec<Value> = t
            .block(BlockId(0))
            .insts
            .iter()
            .map(|&i| match t.inst(i).kind {
                InstKind::Prefetch { addr } => addr,
                ref k => panic!("{k:?}"),
            })
            .collect();
        assert_eq!(
            addrs,
            [Value::Global(GlobalId(1)), Value::Global(GlobalId(1)), Value::Global(GlobalId(0))]
        );
        let printed = crate::print::print_module(&m);
        let again = parse_module(&printed).expect("re-parses");
        assert_eq!(crate::print::print_module(&again), printed, "print → parse is a fixed point");
    }

    #[test]
    fn a_global_declared_under_another_id_is_rejected() {
        for (decl, line) in [
            ("global g1 a : 8 x i64\n", 1),
            ("global g0 a : 8 x i64\nglobal g0 b : 8 x i64\n", 2),
            ("global g0 a : 8 x i64\nglobal g01 b : 8 x i64\n", 2),
            ("global b a : 8 x i64\n", 1),
        ] {
            let e = error(decl);
            assert_eq!(e.line, line, "{decl}: {e}");
            assert!(e.message.contains("declared as global"), "{decl}: {e}");
        }
    }

    #[test]
    fn duplicate_function_names_are_rejected() {
        let text = "fn f() -> i64 {\nbb0:\n  ret 1\n}\n\nfn f() -> i64 {\nbb0:\n  ret 2\n}\n\n\
                    task fn t() {\nbb0:\n  v0: i64 = call f()\n  ret\n}\n";
        let e = error(text);
        assert_eq!(e.line, 6, "{e}");
        assert!(e.message.contains("duplicate function `f`"), "{e}");
    }

    #[test]
    fn duplicate_value_names_are_rejected() {
        let text =
            "fn f() -> i64 {\nbb0:\n  v0: i64 = iadd 1, 2\n  v0: i64 = iadd v0, 3\n  ret v0\n}\n";
        let e = error(text);
        assert_eq!(e.line, 4, "{e}");
        assert!(e.message.contains("duplicate value `v0`"), "{e}");
    }

    #[test]
    fn duplicate_block_names_are_rejected() {
        let text = "fn f() {\nbb0:\n  jump bb1\nbb1:\n  jump bb1\nbb1:\n  ret\n}\n";
        let e = error(text);
        assert_eq!(e.line, 6, "{e}");
        assert!(e.message.contains("duplicate block `bb1`"), "{e}");
    }

    #[test]
    fn uses_may_precede_definitions() {
        // bb2 is printed before the block defining v1 and the param it
        // reads, and `t` calls `leaf`, which is defined after it.
        let text = "task fn t(arg0: i64) -> i64 {\nbb0:\n  jump bb1(arg0)\n\
                    bb2:\n  v2: i64 = call leaf(v1, bb1p0)\n  ret v2\n\
                    bb1(bb1p0: i64):\n  v1: i64 = iadd bb1p0, 1\n  jump bb2\n}\n\n\
                    fn leaf(arg0: i64, arg1: i64) -> i64 {\nbb0:\n  ret arg1\n}\n";
        let m = parse_module(text).unwrap();
        crate::verify::verify_module(&m).unwrap();
        let t = m.func(m.func_by_name("t").unwrap());
        let call = t.inst(t.block(BlockId(1)).insts[0]);
        let InstKind::Call { callee, args } = &call.kind else { panic!("{call:?}") };
        assert_eq!(*callee, m.func_by_name("leaf").unwrap());
        let bb1p0 = Value::BlockParam { block: BlockId(2), index: 0 };
        assert_eq!(args, &[Value::Inst(InstId(1)), bb1p0]);
        assert_eq!(
            t.inst(InstId(1)).kind,
            InstKind::Binary { op: BinOp::IAdd, lhs: bb1p0, rhs: Value::i64(1) }
        );
    }

    #[test]
    fn undefined_names_fail_at_their_first_use() {
        let e = error("fn f() {\nbb0:\n  jump bb9\n}\n");
        assert_eq!((e.line, e.message.as_str()), (3, "unknown block `bb9`"));
        let e =
            error("fn f() -> i64 {\nbb0:\n  v0: i64 = iadd v7, 1\n  jump bb8\nbb1:\n  ret v0\n}\n");
        assert_eq!((e.line, e.message.as_str()), (3, "unknown value `v7`"));
        let e = error("fn f() {\nbb0:\n  call g()\n  ret\n}\n");
        assert_eq!((e.line, e.message.as_str()), (3, "unknown callee `g`"));
    }

    #[test]
    fn huge_numbers_in_names_are_only_names() {
        let text = "fn f() -> i64 {\nbb0:\n  jump bb18446744073709551615(7)\n\
                    bb18446744073709551615(bb18446744073709551615p0: i64):\n\
                    \x20 v4294967295: i64 = iadd bb18446744073709551615p0, 1\n  ret v4294967295\n}\n";
        let m = parse_module(text).unwrap();
        crate::verify::verify_module(&m).unwrap();
        let f = m.func(FuncId(0));
        assert_eq!((f.num_blocks(), f.num_insts()), (2, 1));
        assert!(error("fn f() {\nbb0:\n  prefetch @g99999999999\n  ret\n}\n")
            .message
            .contains("unknown global"));
    }

    #[test]
    fn lines_off_the_printers_layout_read_as_the_printers_own() {
        // The same function as the printer lays it out, and with each
        // line's spacing changed so that the cut refuses it and the
        // general reader takes it: tabs, double and trailing spaces, a
        // carriage return, a comment, spaces inside an edge list.
        let printed = "fn f(arg0: i64) -> i64 {\nbb0:\n  jump bb1(0, arg0)\n\
                       bb1(bb1p0: i64, bb1p1: i64):\n  v0: bool = icmp lt bb1p0, bb1p1\n  \
                       br v0, bb2, bb3\nbb2:\n  v1: i64 = iadd bb1p0, 1\n  store @g0, v1\n  \
                       jump bb1(v1, bb1p1)\nbb3:\n  ret bb1p0\n}\n";
        let odd = "fn f(arg0: i64) -> i64 {\nbb0:\r\n\tjump bb1( 0,arg0 )\n\
                   bb1(bb1p0:i64, bb1p1: i64):\n  v0 : bool = icmp  lt bb1p0, bb1p1\n\n  \
                   // a comment\n  br v0,bb2, bb3  \nbb2:\n  v1: i64 =iadd bb1p0, 1\n  \
                   store @g0,v1\n  jump bb1(v1, bb1p1)\nbb3:\n  ret  bb1p0\n}\n";
        let globals = "global g0 a : 8 x i64\n";
        let canonical = parse_module(&format!("{globals}{printed}")).expect("parses");
        let respaced = parse_module(&format!("{globals}{odd}")).expect("parses");
        assert_eq!(respaced.func(FuncId(0)), canonical.func(FuncId(0)));
        assert_eq!(crate::print::print_module(&canonical), format!("{globals}\n{printed}\n"));
    }

    #[test]
    fn names_take_any_bytes_but_the_separators_they_stop_at() {
        // A value name runs to the `:` of its definition and to the end of
        // an operand: multibyte characters and punctuation are name bytes.
        for name in ["vé", "v€x", "v$1", "v#", "v("] {
            let text =
                format!("fn f() -> i64 {{\nbb0:\n  {name}: i64 = iadd 1, 2\n  ret {name}\n}}\n");
            let m = parse_module(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            let f = m.func(FuncId(0));
            assert_eq!(f.terminator(f.entry), &Terminator::Ret(Some(Value::Inst(InstId(0)))));
        }
        // The first `:` ends the name, so the type is the rest up to `=`.
        let e = error("fn f() -> i64 {\nbb0:\n  vx:y: i64 = iadd 1, 2\n  ret vx\n}\n");
        assert_eq!((e.line, e.message.as_str()), (3, "unknown type `y: i64`"));
        // `//` after other text is part of it, not a comment.
        let e = error("fn f() -> i64 {\nbb0:\n  v0: i64 = iadd 1, 2\n  ret v0 // c\n}\n");
        assert_eq!((e.line, e.message.as_str()), (4, "unknown value `v0 // c`"));
        let e = error("fn f() -> i64 {\nbb0:\n  ret 1 // c\n}\n");
        assert_eq!((e.line, e.message.as_str()), (3, "cannot parse value `1 // c`"));
        // A multibyte character beside a separator splits nowhere inside.
        let e = error("fn f() -> i64 {\nbb0:\n  v0: i64 = iadd é,€\n  ret v0\n}\n");
        assert_eq!((e.line, e.message.as_str()), (3, "cannot parse value `é`"));
        let e = error("fn f() {\nbb0:\n  jump bb1(€\n}\n");
        assert_eq!((e.line, e.message.as_str()), (3, "unterminated edge args in `bb1(€`"));
    }

    #[test]
    fn malformed_headers_fail_without_panicking() {
        for text in ["fn f)x( {\n}\n", "fn f( {\n}\n", "fn f() {\nbb0:\n  ret\n", "bb0:\n"] {
            let _ = error(text);
        }
    }

    #[test]
    fn a_large_function_leaves_no_large_map_behind() {
        let names: Vec<String> = (0..1000).map(|i| format!("v{i}")).collect();
        let mut map: Names<'_, usize> = HashMap::with_hasher(NameHash(0));
        map.extend(names.iter().enumerate().map(|(i, n)| (n.as_str(), i)));
        // The large function's own clear costs what the function did; the
        // small function after it drops the map rather than clear it again.
        reset(&mut map);
        map.insert("v0", 0);
        reset(&mut map);
        assert!(map.is_empty() && map.capacity() < 64, "capacity {}", map.capacity());
        map.insert("v0", 0);
        let capacity = map.capacity();
        reset(&mut map);
        assert!(map.is_empty() && map.capacity() == capacity, "a small map is cleared in place");
    }
}
