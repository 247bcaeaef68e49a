//! A dependency-free JSON tree: ordered objects, a compact writer and a
//! strict recursive-descent parser.
//!
//! The whole workspace is `serde`-free by design; this module is the one
//! place JSON is spelled out. Objects preserve insertion order (they are
//! association lists, not hash maps) so emitted files are deterministic
//! and diffable. Numbers are `f64` — every counter in the trace model fits
//! losslessly below 2⁵³.

use std::fmt::Write as _;

/// One JSON value. Objects are ordered association lists.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integers print without a decimal point).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in insertion order.
    Obj(Vec<(String, JsonValue)>),
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}
impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::Num(v)
    }
}
impl From<u32> for JsonValue {
    fn from(v: u32) -> Self {
        JsonValue::Num(v as f64)
    }
}
impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        JsonValue::Num(v as f64)
    }
}
impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::Num(v as f64)
    }
}
impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::Str(v.to_string())
    }
}
impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::Str(v)
    }
}
impl From<Vec<JsonValue>> for JsonValue {
    fn from(v: Vec<JsonValue>) -> Self {
        JsonValue::Arr(v)
    }
}

impl JsonValue {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, JsonValue)>) -> JsonValue {
        JsonValue::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up `key` in an object (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The `(key, value)` pairs, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(v) => Some(v),
            _ => None,
        }
    }

    /// Serialises compactly (no whitespace). Non-finite numbers become
    /// `null`, keeping the output valid JSON.
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(n) => write_number(out, *n),
            JsonValue::Str(s) => write_escaped(out, s),
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 9e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        // Rust's shortest round-trip formatting never produces exponents,
        // so the result is always valid JSON.
        let _ = write!(out, "{n}");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure, with the byte offset it occurred at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub msg: String,
    /// Byte offset into the input.
    pub at: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

impl JsonError {
    /// Stable machine-readable error code (the zero-dependency mirror of
    /// `dae_ir::CodedError`, same `<layer>.<class>` namespace).
    pub fn code(&self) -> &'static str {
        "json.parse"
    }
}

/// Maximum container nesting depth [`parse`] accepts. The parser is
/// recursive-descent, so without a bound an adversarial `[[[[…` frame
/// would overflow the stack — an uncatchable abort, not an `Err`.
pub(crate) const MAX_DEPTH: usize = 128;

/// Parses `text` as a single JSON value (trailing whitespace allowed,
/// trailing garbage is an error). Containers nested deeper than
/// `MAX_DEPTH` are rejected with an error.
pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
    Parser::<true>::document(text)
}

/// True exactly when [`parse`] would succeed: the same parser walks the
/// same grammar (same `MAX_DEPTH`, same trailing-garbage rule) but
/// builds no tree and allocates nothing, so checking a frame that is only
/// passed along costs a scan.
pub fn validate(text: &str) -> bool {
    Parser::<false>::document(text).is_ok()
}

/// The one recursive-descent JSON grammar. With `BUILD` it assembles the
/// [`JsonValue`] tree; without, every production still consumes exactly
/// the same input but returns empty placeholders and error messages are
/// not formatted (`String::new` and `Vec::new` do not allocate).
struct Parser<'a, const BUILD: bool> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a, const BUILD: bool> Parser<'a, BUILD> {
    fn document(text: &'a str) -> Result<JsonValue, JsonError> {
        let mut p = Parser::<BUILD> { text, pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(p.err("trailing characters after value"));
        }
        Ok(v)
    }

    fn err(&self, msg: impl std::fmt::Display) -> JsonError {
        JsonError { msg: if BUILD { msg.to_string() } else { String::new() }, at: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), JsonError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format_args!("expected `{}`", c as char)))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format_args!("expected `{word}`")))
        }
    }

    fn enter(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err("containers nested too deeply"));
        }
        Ok(())
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        self.enter()?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(JsonValue::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            if BUILD {
                pairs.push((key, v));
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(JsonValue::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            let v = self.value()?;
            if BUILD {
                items.push(v);
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            // A run of plain characters ends at the next `"` or `\`. Both
            // are ASCII, so the run is sliced on char boundaries and
            // multi-byte scalars pass through whole.
            let run = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            if BUILD {
                s.push_str(&self.text[run..self.pos]);
            }
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(_) => {
                    self.pos += 1;
                    let c = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            if self.pos + 5 > self.text.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            // `get` refuses a range that splits a scalar.
                            let hex = self
                                .text
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogates are not recombined; they only
                            // appear for non-BMP chars, which the writer
                            // never escapes.
                            char::from_u32(code).unwrap_or('\u{fffd}')
                        }
                        _ => return Err(self.err("bad escape")),
                    };
                    if BUILD {
                        s.push(c);
                    }
                    self.pos += 1;
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = &self.text[start..self.pos];
        text.parse::<f64>().map(JsonValue::Num).map_err(|_| JsonError {
            msg: if BUILD { format!("bad number `{text}`") } else { String::new() },
            at: start,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_and_parses_round_trip() {
        let v = JsonValue::obj([
            ("name", "access:lu\"diag\"".into()),
            ("n", 42u64.into()),
            ("t", 1.5e-7.into()),
            ("neg", (-3.0f64).into()),
            ("ok", true.into()),
            ("none", JsonValue::Null),
            ("arr", vec![JsonValue::Num(1.0), JsonValue::Str("x\n".into())].into()),
        ]);
        let text = v.to_json_string();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn integers_print_without_decimal_point() {
        assert_eq!(JsonValue::Num(42.0).to_json_string(), "42");
        assert_eq!(JsonValue::Num(-7.0).to_json_string(), "-7");
        assert_eq!(JsonValue::Num(0.5).to_json_string(), "0.5");
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(JsonValue::Num(f64::NAN).to_json_string(), "null");
        assert_eq!(JsonValue::Num(f64::INFINITY).to_json_string(), "null");
    }

    #[test]
    fn object_lookup_preserves_order() {
        let v = parse(r#"{"b": 1, "a": 2}"#).unwrap();
        let keys: Vec<&str> = v.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["b", "a"]);
        assert_eq!(v.get("a").unwrap().as_f64(), Some(2.0));
        assert!(v.get("c").is_none());
    }

    #[test]
    fn parses_nested_and_escapes() {
        let v = parse(r#"{"s": "a\"b\\c\u0041\n", "e": [1e-9, -2.5E3, []]}"#).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("a\"b\\cA\n"));
        let e = v.get("e").unwrap().as_arr().unwrap();
        assert_eq!(e[0].as_f64(), Some(1e-9));
        assert_eq!(e[1].as_f64(), Some(-2500.0));
        assert_eq!(e[2].as_arr().unwrap().len(), 0);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
        let e = parse("nulL").unwrap_err();
        assert!(e.to_string().contains("byte"));
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(200_000);
        let e = parse(&deep).unwrap_err();
        assert!(e.msg.contains("nested too deeply"), "{e}");
        let mut ok = "[[[[[[[[".to_string();
        ok.push('1');
        ok.push_str(&"]".repeat(8));
        assert!(parse(&ok).is_ok(), "shallow nesting still parses");
        // Exactly at the limit parses; one past fails.
        let at = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at).is_ok());
        let past = format!("{}1{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&past).is_err());
    }

    #[test]
    fn validate_accepts_exactly_what_parse_accepts() {
        let deep = |n: usize| format!("{}1{}", "[".repeat(n), "]".repeat(n));
        let cases = [
            // Canonical response frames.
            "{\"id\":1,\"ok\":true,\"result\":{\"x\":[1,2.5e-3,\"s\\n\"]}}".to_string(),
            "{\"id\":\"a-b\",\"ok\":false,\"error\":{\"code\":\"gate.upstream\"}}".to_string(),
            "{\"id\":null,\"ok\":true,\"result\":\"\\u0041\\\\ caf\u{e9} \u{1f600}\"}".to_string(),
            " [1, -2.5E3, [], {}, \"\"] ".to_string(),
            deep(MAX_DEPTH),
            // Damage in the shapes a faulty peer produces.
            "{\"id\":1,\"ok\":true,\"result\":".to_string(),
            "{\"id\":1,\"ok\":truX,\"result\":1}".to_string(),
            "{\"id\":1,\"ok\":true,\"result\":1}}".to_string(),
            "{\"id\":1,\"ok\":true,\"result\":\"\\u12G4\"}".to_string(),
            "{\"id\":1,\"ok\":true,\"result\":\"\\u00\u{e9}1\"}".to_string(),
            "{\"id\":1,\"ok\":true,\"result\":\"\\x\"}".to_string(),
            "{\"id\":1,\"ok\":true,\"result\":1e}".to_string(),
            "{\"id\":1,\"ok\":true \"result\":1}".to_string(),
            "{\"id\":1,,\"ok\":true}".to_string(),
            "{\"id\":1,\"ok\":true,\"result\":-}".to_string(),
            "\"unterminated".to_string(),
            "nul".to_string(),
            String::new(),
            deep(MAX_DEPTH + 1),
        ];
        for (i, case) in cases.iter().enumerate() {
            assert_eq!(validate(case), parse(case).is_ok(), "{case:?}");
            assert_eq!(validate(case), i < 5, "{case:?}");
        }
    }

    #[test]
    fn control_characters_are_escaped() {
        let text = JsonValue::Str("\u{1}".into()).to_json_string();
        assert_eq!(text, "\"\\u0001\"");
        assert_eq!(parse(&text).unwrap().as_str(), Some("\u{1}"));
    }
}
