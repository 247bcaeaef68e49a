//! The wire protocol: newline-delimited JSON requests and responses.
//!
//! One request per line, one response per line, matched by the caller via
//! the echoed `id`. Responses to a connection may arrive **out of request
//! order** (workers finish independently); `id` is the only correlation.
//!
//! ```json
//! {"id": 1, "op": "compile", "ir": "task fn f() { … }", "hints": [4096]}
//! {"id": 1, "ok": true, "result": {"module": "…", "tasks": 1, …}}
//! {"id": 2, "ok": false, "error": {"code": "ir.parse", "message": "…"}}
//! ```
//!
//! Every field of a successful response is **deterministic**: a request's
//! response bytes are identical whatever the worker count, queue state or
//! cache temperature (which is what makes the service's responses testable
//! against a direct `daec`-equivalent run). Volatile data — latency
//! percentiles, queue depth, cache hit counters — only ever appears in
//! `stats`/`health` responses.

use dae_trace::json::{parse, JsonValue};

/// Frames longer than this are refused with [`codes::TOO_LARGE`] before
/// JSON parsing: the reader never buffers unbounded attacker input.
pub const MAX_FRAME_BYTES: usize = 4 << 20;

/// Stable error-code strings of the serving layer itself. Layer errors
/// (`ir.parse`, `sim.trap`, …) pass through from `dae_ir::CodedError`.
pub mod codes {
    /// The admission queue was full; the request was shed, not queued.
    pub const OVERLOADED: &str = "serve.overloaded";
    /// The server is draining; new requests are refused.
    pub const DRAINING: &str = "serve.draining";
    /// The request spent longer queued than its deadline allowed.
    pub(crate) const DEADLINE: &str = "serve.deadline";
    /// The request frame exceeded [`super::MAX_FRAME_BYTES`].
    pub const TOO_LARGE: &str = "serve.frame-too-large";
    /// The frame parsed as JSON but is not a valid request.
    pub const BAD_REQUEST: &str = "serve.bad-request";
    /// The module's global data exceeds the server's memory cap.
    pub const MODULE_TOO_LARGE: &str = "serve.module-too-large";
    /// A handler panicked; the worker survived and returned this instead.
    pub(crate) const INTERNAL: &str = "serve.internal";
}

/// The request operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Transform the module: respond with the printed compiled module.
    Compile,
    /// Per-task strategy/statistics report (the `daec --report` view).
    Report,
    /// Compile and simulate every task, coupled vs decoupled
    /// (the `daec --run` view), under a frequency policy.
    Run,
    /// Live server counters, latency histograms and cache statistics.
    Stats,
    /// Liveness/readiness probe.
    Health,
    /// Begin a graceful drain: complete in-flight work, refuse new work.
    Shutdown,
}

impl Op {
    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Op::Compile => "compile",
            Op::Report => "report",
            Op::Run => "run",
            Op::Stats => "stats",
            Op::Health => "health",
            Op::Shutdown => "shutdown",
        }
    }

    fn parse(s: &str) -> Option<Op> {
        Some(match s {
            "compile" => Op::Compile,
            "report" => Op::Report,
            "run" => Op::Run,
            "stats" => Op::Stats,
            "health" => Op::Health,
            "shutdown" => Op::Shutdown,
            _ => return None,
        })
    }

    /// True for operations that go through the admission queue and a
    /// worker (the expensive ones). Control-plane ops (`stats`, `health`,
    /// `shutdown`) answer inline on the connection thread.
    pub(crate) fn is_work(self) -> bool {
        matches!(self, Op::Compile | Op::Report | Op::Run)
    }
}

/// A parsed, validated request.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: JsonValue,
    /// The operation.
    pub op: Op,
    /// Module text (required for work ops, ignored otherwise).
    pub ir: String,
    /// Representative parameter values, applied to every task.
    pub hints: Vec<i64>,
    /// Frequency-policy spec for `run` (default `dae-optimal`).
    pub policy: Option<String>,
    /// Per-request deadline in milliseconds (0 = none): if the request is
    /// still queued when it expires, it is answered with
    /// `codes::DEADLINE` instead of being executed.
    pub deadline_ms: u64,
}

/// A structured error: stable code plus human-readable message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ErrorBody {
    /// Stable machine-readable code (`serve.*` or a layer code).
    pub code: String,
    /// Human-readable description; not part of the stability contract.
    pub message: String,
}

impl ErrorBody {
    /// An error body with the given code and message.
    pub fn new(code: impl Into<String>, message: impl Into<String>) -> ErrorBody {
        ErrorBody { code: code.into(), message: message.into() }
    }

    /// An error body from any [`dae_ir::CodedError`].
    pub(crate) fn from_coded(e: &dyn dae_ir::CodedError) -> ErrorBody {
        ErrorBody::new(e.code(), e.to_string())
    }
}

/// Serialises a success response line (no trailing newline).
pub(crate) fn ok_response(id: &JsonValue, result: JsonValue) -> String {
    JsonValue::Obj(vec![
        ("id".to_string(), id.clone()),
        ("ok".to_string(), JsonValue::Bool(true)),
        ("result".to_string(), result),
    ])
    .to_json_string()
}

/// Serialises a success response line from an already-serialised result
/// object, skipping the tree build. Byte-identical to `ok_response`
/// because the JSON writer is canonical (compact, insertion-ordered).
pub fn ok_response_raw(id: &JsonValue, result_json: &str) -> String {
    let mut out = String::with_capacity(result_json.len() + 32);
    out.push_str("{\"id\":");
    out.push_str(&id.to_json_string());
    out.push_str(",\"ok\":true,\"result\":");
    out.push_str(result_json);
    out.push('}');
    out
}

/// Serialises an error response line (no trailing newline).
pub fn err_response(id: &JsonValue, error: &ErrorBody) -> String {
    JsonValue::Obj(vec![
        ("id".to_string(), id.clone()),
        ("ok".to_string(), JsonValue::Bool(false)),
        (
            "error".to_string(),
            JsonValue::obj([
                ("code", error.code.as_str().into()),
                ("message", error.message.as_str().into()),
            ]),
        ),
    ])
    .to_json_string()
}

/// Parses one frame into a [`Request`].
///
/// Returns `Err((id, error))` on malformed frames; the id is whatever
/// could be recovered (or `null`), so the client can still correlate.
pub fn parse_request(line: &str) -> Result<Request, (JsonValue, ErrorBody)> {
    if line.len() > MAX_FRAME_BYTES {
        return Err((
            JsonValue::Null,
            ErrorBody::new(
                codes::TOO_LARGE,
                format!("frame is {} bytes, limit {}", line.len(), MAX_FRAME_BYTES),
            ),
        ));
    }
    let v = match parse(line) {
        Ok(v) => v,
        Err(e) => return Err((JsonValue::Null, ErrorBody::new(e.code(), e.to_string()))),
    };
    let id = v.get("id").cloned().unwrap_or(JsonValue::Null);
    let bad = |msg: &str| (id.clone(), ErrorBody::new(codes::BAD_REQUEST, msg));
    if v.as_obj().is_none() {
        return Err(bad("request must be a JSON object"));
    }
    let op_str =
        v.get("op").and_then(JsonValue::as_str).ok_or_else(|| bad("missing string field `op`"))?;
    let op = Op::parse(op_str).ok_or_else(|| {
        bad(&format!("unknown op `{op_str}` (compile/report/run/stats/health/shutdown)"))
    })?;
    let ir = match v.get("ir") {
        Some(JsonValue::Str(s)) => s.clone(),
        Some(_) => return Err(bad("field `ir` must be a string")),
        None if op.is_work() => return Err(bad(&format!("op `{op_str}` needs an `ir` field"))),
        None => String::new(),
    };
    let hints = match v.get("hints") {
        None => Vec::new(),
        Some(JsonValue::Arr(items)) => {
            let mut out = Vec::with_capacity(items.len());
            for it in items {
                match it.as_f64() {
                    Some(f) if f.fract() == 0.0 && f.abs() <= 9e15 => out.push(f as i64),
                    _ => return Err(bad("field `hints` must be an array of integers")),
                }
            }
            out
        }
        Some(_) => return Err(bad("field `hints` must be an array of integers")),
    };
    let policy = match v.get("policy") {
        None => None,
        Some(JsonValue::Str(s)) => Some(s.clone()),
        Some(_) => return Err(bad("field `policy` must be a string")),
    };
    let deadline_ms = match v.get("deadline_ms") {
        None => 0,
        Some(d) => match d.as_f64() {
            Some(f) if f >= 0.0 && f.fract() == 0.0 && f <= 9e15 => f as u64,
            _ => return Err(bad("field `deadline_ms` must be a non-negative integer")),
        },
    };
    Ok(Request { id, op, ir, hints, policy, deadline_ms })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_and_tree_success_responses_are_byte_identical() {
        let id = JsonValue::Str("req-\"9\"".to_string());
        let result = JsonValue::obj([
            ("module", "task fn f()".into()),
            ("tasks", 2u64.into()),
            ("nested", JsonValue::Arr(vec![JsonValue::Null, 0.5f64.into()])),
        ]);
        assert_eq!(ok_response_raw(&id, &result.to_json_string()), ok_response(&id, result),);
    }

    #[test]
    fn parses_a_minimal_compile_request() {
        let r = parse_request(r#"{"id": 7, "op": "compile", "ir": "x"}"#).unwrap();
        assert_eq!(r.id, JsonValue::Num(7.0));
        assert_eq!(r.op, Op::Compile);
        assert_eq!(r.ir, "x");
        assert!(r.hints.is_empty());
        assert_eq!(r.deadline_ms, 0);
    }

    #[test]
    fn parses_full_run_request() {
        let r = parse_request(
            r#"{"id":"a-1","op":"run","ir":"t","hints":[1,2],"policy":"dae-minmax","deadline_ms":250}"#,
        )
        .unwrap();
        assert_eq!(r.op, Op::Run);
        assert_eq!(r.hints, vec![1, 2]);
        assert_eq!(r.policy.as_deref(), Some("dae-minmax"));
        assert_eq!(r.deadline_ms, 250);
    }

    #[test]
    fn control_ops_need_no_ir() {
        for op in ["stats", "health", "shutdown"] {
            let r = parse_request(&format!(r#"{{"id":1,"op":"{op}"}}"#)).unwrap();
            assert!(!r.op.is_work());
        }
    }

    #[test]
    fn malformed_frames_return_structured_errors() {
        let cases = [
            ("{not json", "json.parse"),
            ("[1,2]", "serve.bad-request"),
            (r#"{"id":1}"#, "serve.bad-request"),
            (r#"{"id":1,"op":"evaporate"}"#, "serve.bad-request"),
            (r#"{"id":1,"op":"compile"}"#, "serve.bad-request"),
            (r#"{"id":1,"op":"compile","ir":5}"#, "serve.bad-request"),
            (r#"{"id":1,"op":"compile","ir":"x","hints":["a"]}"#, "serve.bad-request"),
            (r#"{"id":1,"op":"compile","ir":"x","deadline_ms":-4}"#, "serve.bad-request"),
            (r#"{"id":1,"op":"run","ir":"x","policy":9}"#, "serve.bad-request"),
        ];
        for (line, want) in cases {
            let (_, e) = parse_request(line).unwrap_err();
            assert_eq!(e.code, want, "case {line}");
            assert!(!e.message.is_empty());
        }
    }

    #[test]
    fn recovered_id_survives_bad_requests() {
        let (id, _) = parse_request(r#"{"id": 42, "op": "noop"}"#).unwrap_err();
        assert_eq!(id, JsonValue::Num(42.0));
    }

    #[test]
    fn oversized_frame_is_refused_before_parsing() {
        let line = format!(r#"{{"op":"compile","ir":"{}"}}"#, "x".repeat(MAX_FRAME_BYTES));
        let (_, e) = parse_request(&line).unwrap_err();
        assert_eq!(e.code, codes::TOO_LARGE);
    }

    #[test]
    fn responses_echo_the_id_and_shape() {
        let id = JsonValue::Str("req-9".into());
        let ok = ok_response(&id, JsonValue::obj([("n", 3u64.into())]));
        let v = parse(&ok).unwrap();
        assert_eq!(v.get("id").unwrap().as_str(), Some("req-9"));
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("result").unwrap().get("n").unwrap().as_f64(), Some(3.0));
        let err = err_response(&id, &ErrorBody::new("serve.overloaded", "queue full"));
        let v = parse(&err).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("error").unwrap().get("code").unwrap().as_str(), Some("serve.overloaded"));
    }
}
