//! Adversarial-input tests for the serving path.
//!
//! Everything a client can put on the wire — malformed JSON, hostile
//! frames, truncated or mutated IR, resource-exhaustion attempts — must
//! come back as a structured error with a stable dotted code. A panic,
//! a hang, or an unbounded allocation anywhere in `parse_request` or
//! `Engine::handle` is a bug; these tests fuzz for one.

use dae_repro::ir::CodedError;
use dae_repro::pgo::{PhaseAgg, PhaseProfile, ProfileStore};
use dae_repro::poly::{rows_high_water, ROW_BUDGET};
use dae_repro::serve::load::corpus_program;
use dae_repro::serve::proto::parse_request;
use dae_repro::serve::{codes, Engine, EngineConfig, Request, MAX_FRAME_BYTES};
use dae_repro::trace::json::{parse, validate, JsonValue};
use proptest::prelude::*;

const STREAM: &str = "\
global g0 a : 4096 x f64

task fn stream(arg0: i64) {
bb0:
  jump bb1(0)
bb1(bb1p0: i64):
  v0: bool = icmp lt bb1p0, 1024
  br v0, bb2, bb3
bb2:
  v1: i64 = iadd arg0, bb1p0
  v2: i64 = imul v1, 8
  v3: ptr = ptradd @g0, v2
  v4: f64 = load v3
  v5: f64 = fmul v4, 2.0
  store v3, v5
  v6: i64 = iadd bb1p0, 1
  jump bb1(v6)
bb3:
  ret
}
";

/// Every error escaping the serving path uses the `<layer>.<class>`
/// vocabulary; anything else leaked an internal formatting.
fn assert_structured(code: &str) {
    assert!(
        code.contains('.') && code.split('.').all(|part| !part.is_empty()),
        "error code `{code}` is not a dotted layer.class code"
    );
}

/// Runs one frame through the full untrusted pipeline exactly as a
/// worker would, asserting the structured-error contract throughout.
fn feed(engine: &Engine, frame: &str) {
    match parse_request(frame) {
        Err((_, e)) => assert_structured(&e.code),
        Ok(req) => {
            if let Err(e) = engine.handle(&req) {
                assert_structured(&e.code);
            }
        }
    }
}

fn work_request(op: &str, ir: &str) -> Request {
    let frame = JsonValue::obj([("id", 1u64.into()), ("op", op.into()), ("ir", ir.into())])
        .to_json_string();
    parse_request(&frame).expect("well-formed envelope")
}

/// A valid `compile` frame carrying [`STREAM`] — the seed the truncation
/// and mutation generators damage.
fn compile_frame() -> String {
    JsonValue::obj([("id", 1u64.into()), ("op", "compile".into()), ("ir", STREAM.into())])
        .to_json_string()
}

/// `frame` cut at (or just before) byte `cut`, on a char boundary: the
/// wire is bytes but the test API takes &str, and a real reader would
/// frame at the newline.
fn truncated(frame: &str, cut: usize) -> &str {
    let mut end = cut.min(frame.len());
    while !frame.is_char_boundary(end) {
        end -= 1;
    }
    &frame[..end]
}

/// The token pool for [`ir_token_soup_never_panics`]: real-looking IR
/// fragments reassembled at random dig deeper into the parser and
/// verifier than uniform byte noise can.
const TOKENS: &[&str] = &[
    "task fn f(arg0: i64) {",
    "fn f() {",
    "}",
    "bb0:",
    "bb1(bb1p0: i64):",
    "global g0 a : 4096 x f64",
    "global g0 a : 99999999999999999999 x f64",
    "  v0: bool = icmp lt bb1p0, 1024",
    "  v1: i64 = iadd arg0, bb1p0",
    "  v3: ptr = ptradd @g0, v2",
    "  v4: f64 = load v3",
    "  store v3, v5",
    "  br v0, bb2, bb3",
    "  jump bb1(v6)",
    "  ret",
    "  v9: i64 = idiv v1, 0",
    // Names are looked up, never used as sizes or indices; a second
    // `bb0:` is a duplicate block.
    "  v4294967295: i64 = iadd arg0, 1",
    "  v5: i64 = iadd bb18446744073709551615p0, 1",
    "  v2: ptr = ptradd @g99999999999, 8",
    "bb0:",
    "\u{0}",
    "",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Raw garbage on the wire: any byte soup is answered, never panics.
    #[test]
    fn arbitrary_frames_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..400)) {
        let frame = String::from_utf8_lossy(&bytes).into_owned();
        let engine = Engine::new(&EngineConfig::default());
        feed(&engine, &frame);
    }

    /// Truncating a valid frame mid-way models a client dying mid-write.
    #[test]
    fn truncated_valid_frames_fail_structurally(cut in 0usize..1200) {
        let engine = Engine::new(&EngineConfig::default());
        feed(&engine, truncated(&compile_frame(), cut));
    }

    /// The gateway passes a backend's response through unparsed once
    /// `validate` accepts it, so `validate` must accept exactly what the
    /// client's `parse` will: it is the same parser building nothing, and
    /// byte soup, truncation and single-byte damage must not tell the two
    /// apart.
    #[test]
    fn validate_agrees_with_parse_on_hostile_frames(
        bytes in proptest::collection::vec(any::<u8>(), 0..400),
        cut in 0usize..1200,
        pos in 0usize..1200,
        byte in 0u8..127,
    ) {
        let frame = compile_frame();
        let mut mutated = frame.clone().into_bytes();
        let pos = pos % mutated.len();
        mutated[pos] = byte;
        // The frame is pure ASCII and so is the new byte: still valid UTF-8.
        let mutated = String::from_utf8(mutated).expect("ascii stays ascii");
        let soup = String::from_utf8_lossy(&bytes);
        for text in [&*soup, truncated(&frame, cut), &mutated, &frame] {
            prop_assert_eq!(validate(text), parse(text).is_ok(), "{:?}", text);
        }
    }

    /// Mutating one byte of the IR text: the parser/verifier rejects or
    /// the program still runs, but nothing panics either way.
    #[test]
    fn single_byte_ir_mutations_never_panic(pos in 0usize..400, byte in 0u8..127) {
        let mut ir = STREAM.as_bytes().to_vec();
        let pos = pos % ir.len();
        ir[pos] = byte;
        // STREAM is pure ASCII and so is the new byte: still valid UTF-8.
        let ir = String::from_utf8(ir).expect("ascii stays ascii");
        let engine = Engine::new(&EngineConfig::default());
        for op in ["compile", "report", "run"] {
            if let Err(e) = engine.handle(&work_request(op, &ir)) {
                assert_structured(&e.code);
            }
        }
    }

    /// Random line soup assembled from real-looking IR tokens.
    #[test]
    fn ir_token_soup_never_panics(
        picks in proptest::collection::vec(0usize..TOKENS.len(), 0..24),
    ) {
        let ir = picks.iter().map(|&i| TOKENS[i]).collect::<Vec<_>>().join("\n");
        let engine = Engine::new(&EngineConfig::default());
        for op in ["compile", "run"] {
            if let Err(e) = engine.handle(&work_request(op, &ir)) {
                assert_structured(&e.code);
            }
        }
    }
}

/// A well-formed two-record profile document, as `daec --profile-out`
/// would write it — the seed for the mutation fuzzers below.
fn valid_profile_document() -> String {
    let agg = PhaseAgg {
        instrs: 4096,
        loads: 1024,
        dram_misses: 128,
        prefetches: 512,
        prefetch_dram_lines: 64,
        branches: 256,
        mlp_x100_sum: 300,
        mem_bound_ppm_sum: 500_000,
    };
    let profile = PhaseProfile { runs: 3, access: agg, execute: agg };
    let mut store = ProfileStore::new();
    store.merge_record(0x00ab_cdef_0123_4567, &profile);
    store.merge_record(0xfeed_f00d_dead_beef, &profile);
    store.document_json().to_json_string()
}

/// Feeds one profile document through the same path as
/// `daec --profile-in`: either it merges (malformed records silently
/// skipped) or it fails with a dotted `pgo.*` code — never a panic.
fn feed_profile(text: &str) {
    let mut store = ProfileStore::new();
    match store.merge_document(text) {
        Ok(()) => {
            // Whatever merged must re-serialise and re-merge cleanly.
            let doc = store.document_json().to_json_string();
            ProfileStore::new().merge_document(&doc).expect("own output re-merges");
        }
        Err(e) => assert_structured(e.code()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Raw garbage as a profile file: answered, never panics.
    #[test]
    fn profile_byte_soup_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..400)) {
        feed_profile(&String::from_utf8_lossy(&bytes));
    }

    /// Truncating a valid profile document models a writer dying
    /// mid-save (the atomic writer prevents this on our side, but a
    /// hand-edited or foreign file can still arrive torn).
    #[test]
    fn truncated_profile_documents_fail_structurally(cut in 0usize..700) {
        let doc = valid_profile_document();
        let mut end = cut.min(doc.len());
        while !doc.is_char_boundary(end) {
            end -= 1;
        }
        feed_profile(&doc[..end]);
    }

    /// Mutating one byte of a valid document: record-level corruption is
    /// skipped silently, document-level corruption is a dotted error,
    /// and nothing in between panics.
    #[test]
    fn single_byte_profile_mutations_never_panic(pos in 0usize..700, byte in 0u8..127) {
        let mut doc = valid_profile_document().into_bytes();
        let pos = pos % doc.len();
        doc[pos] = byte;
        // The document is pure ASCII and so is the new byte.
        feed_profile(&String::from_utf8(doc).expect("ascii stays ascii"));
    }
}

#[test]
fn hostile_profile_documents_get_dotted_codes() {
    let mut store = ProfileStore::new();
    let e = store.merge_document("not json at all").expect_err("refused");
    assert_eq!(e.code(), dae_repro::pgo::codes::PARSE);

    let e = store
        .merge_document(r#"{"schema":"dae-pgo-profile/99","records":[]}"#)
        .expect_err("wrong schema refused");
    assert_eq!(e.code(), dae_repro::pgo::codes::SCHEMA);

    let e = store.merge_document(r#"{"records":[]}"#).expect_err("missing schema refused");
    assert_eq!(e.code(), dae_repro::pgo::codes::SCHEMA);
}

#[test]
fn malformed_records_are_skipped_not_fatal() {
    // One garbage record sandwiched between nothing: the document is
    // valid, so the merge succeeds and counts the skip.
    let doc = r#"{"schema":"dae-pgo-profile/1","records":[{"key":"xyzzy"},42,null]}"#;
    let mut store = ProfileStore::new();
    store.merge_document(doc).expect("document-level shape is fine");
    assert!(store.is_empty(), "garbage records must not materialise");
    assert!(store.stats().skipped_records >= 3, "every bad record is counted");
}

#[test]
fn oversized_frames_are_rejected_before_parsing() {
    let frame = format!(r#"{{"id":1,"op":"compile","ir":"{}"}}"#, "x".repeat(MAX_FRAME_BYTES));
    let (_, e) = parse_request(&frame).expect_err("over-cap frame refused");
    assert_eq!(e.code, codes::TOO_LARGE);
}

#[test]
fn deeply_nested_json_does_not_blow_the_stack() {
    let frame = format!("{}\"x\"{}", "[".repeat(4000), "]".repeat(4000));
    let (_, e) = parse_request(&frame).expect_err("depth-limited parser refuses");
    assert_eq!(e.code, "json.parse");
}

#[test]
fn unknown_ops_and_wrong_types_are_bad_requests() {
    for frame in [
        r#"{"id":1,"op":"explode","ir":"x"}"#,
        r#"{"id":1,"op":7,"ir":"x"}"#,
        r#"{"id":1,"op":"compile","ir":42}"#,
        r#"{"id":1,"op":"compile","ir":"x","hints":[1.5]}"#,
        r#"{"id":1,"op":"compile","ir":"x","hints":"nope"}"#,
        r#"{"id":1,"op":"compile","ir":"x","deadline_ms":-3}"#,
        r#"[1,2,3]"#,
        r#""just a string""#,
    ] {
        let (_, e) = parse_request(frame).expect_err(frame);
        assert_eq!(e.code, codes::BAD_REQUEST, "{frame}");
    }
}

#[test]
fn duplicate_names_are_parse_errors() {
    // Each second definition used to rebind the name (or surface as a
    // verifier error about its symptom); now it fails where it stands.
    let cases = [
        ("global g0 a : 8 x i64\nglobal g1 a : 16 x f64\n", 2, "duplicate global `a`"),
        ("fn f() {\nbb0:\n  ret\n}\nfn f() {\nbb0:\n  ret\n}\n", 5, "duplicate function `f`"),
        (
            "task fn t() {\nbb0:\n  v0: i64 = iadd 1, 2\n  v0: i64 = iadd 3, 4\n  ret\n}\n",
            4,
            "duplicate value `v0`",
        ),
        (
            "task fn t() {\nbb0:\n  jump bb1\nbb1:\n  ret\nbb1:\n  ret\n}\n",
            6,
            "duplicate block `bb1`",
        ),
    ];
    let engine = Engine::new(&EngineConfig::default());
    for (ir, line, what) in cases {
        let e = engine.handle(&work_request("compile", ir)).expect_err(what);
        assert_eq!(e.code, "ir.parse", "{ir}");
        assert!(e.message.contains(&format!("line {line}: {what}")), "{}", e.message);
    }
}

#[test]
fn huge_global_declarations_are_refused_not_allocated() {
    let ir = "global g0 bomb : 140737488355328 x f64\n\ntask fn f() {\nbb0:\n  ret\n}\n";
    let engine = Engine::new(&EngineConfig::default());
    let e = engine.handle(&work_request("run", ir)).expect_err("refused");
    assert_eq!(e.code, codes::MODULE_TOO_LARGE);
}

#[test]
fn runaway_programs_hit_the_step_limit() {
    // An infinite loop in virtual time: the interpreter's step limit
    // must end it with a structured trap, not a wall-clock hang.
    let ir = "task fn spin() {\nbb0:\n  jump bb1\nbb1:\n  jump bb1\n}\n";
    let engine = Engine::new(&EngineConfig::default());
    match engine.handle(&work_request("run", ir)) {
        Err(e) => assert_structured(&e.code),
        Ok(_) => panic!("an infinite loop cannot succeed"),
    }
}

/// Sends `ir` as `compile` and as `run`: each must come back as a result
/// or a dotted code — and, whatever the trip counts say, after no more
/// counting work than one row budget per generated access phase. The
/// counter is asserted, not wall time: on the commit before row-granular
/// counting these requests pinned a worker for minutes.
fn compile_and_run_within_the_row_budget(engine: &Engine, ir: &str) {
    for op in ["compile", "run"] {
        if let Err(e) = engine.handle(&work_request(op, ir)) {
            assert_structured(&e.code);
        }
        assert!(rows_high_water() <= ROW_BUDGET, "{op}: {} rows visited", rows_high_water());
    }
}

#[test]
fn a_billion_trip_stream_compiles_in_one_row() {
    // A 400-byte request: corpus program 0 with its trip count 512
    // replaced by 10^9. One row per access, whatever the length.
    let ir = corpus_program(0).replace("icmp lt bb1p0, 512", "icmp lt bb1p0, 1000000000");
    assert_ne!(ir, corpus_program(0), "the corpus program changed shape");
    let engine = Engine::new(&EngineConfig::default());
    compile_and_run_within_the_row_budget(&engine, &ir);
    engine.handle(&work_request("compile", &ir)).expect("a long stream still compiles");
}

#[test]
fn a_hundred_thousand_squared_nest_is_counted_by_rows_or_refused() {
    // for i < 10^5, j < 10^5: a[i + j] is 10^5 row intervals (affordable);
    // a[3i + 2j + 1] does not delinearise (the 1 fits neither stride) and
    // has no unit-stride dim to run along, so every one of the 10^10 points
    // is its own run: the budget refuses, the skeleton path answers.
    let nest = |subscript: &str| {
        format!(
            "global g0 a : 400000 x f64\n\n\
             task fn nest() {{\nbb0:\n  jump bb1(0)\n\
             bb1(bb1p0: i64):\n  v0: bool = icmp lt bb1p0, 100000\n  br v0, bb2, bb5\n\
             bb2:\n  jump bb3(0)\n\
             bb3(bb3p0: i64):\n  v1: bool = icmp lt bb3p0, 100000\n  br v1, bb4, bb6\n\
             bb4:\n{subscript}  v4: i64 = imul v3, 8\n  v5: ptr = ptradd @g0, v4\n\
             \x20 v6: f64 = load v5\n  v7: f64 = fmul v6, 2.0\n  store v5, v7\n\
             \x20 v8: i64 = iadd bb3p0, 1\n  jump bb3(v8)\n\
             bb6:\n  v9: i64 = iadd bb1p0, 1\n  jump bb1(v9)\n\
             bb5:\n  ret\n}}\n"
        )
    };
    let engine = Engine::new(&EngineConfig::default());
    let by_rows = nest("  v3: i64 = iadd bb1p0, bb3p0\n");
    compile_and_run_within_the_row_budget(&engine, &by_rows);
    engine.handle(&work_request("compile", &by_rows)).expect("10^5 rows are affordable");
    assert!(rows_high_water() < ROW_BUDGET, "a[i + j] must be counted by rows");
    let by_points = nest(
        "  v2: i64 = imul bb3p0, 2\n  v10: i64 = imul bb1p0, 3\n  v11: i64 = iadd v2, v10\n\
         \x20 v3: i64 = iadd v11, 1\n",
    );
    compile_and_run_within_the_row_budget(&engine, &by_points);
    assert_eq!(rows_high_water(), ROW_BUDGET, "10^10 points must exhaust the budget");
    engine.handle(&work_request("compile", &by_points)).expect("refusal falls back, not fails");
}

#[test]
fn twenty_thousand_direct_global_loads_prefetch_each_global_once() {
    // A ~2.4 MB request: 20 000 globals, each loaded straight from its base
    // address twice per iteration of a loop whose trip count is the sum of
    // the first loads. The bound is a load, so the affine path refuses and
    // the skeleton path puts every distinct address in its prefetch set and
    // its control slice. Both are tables indexed by global id: with a
    // searched list of the addresses, the cost grew with the square of the
    // globals (a `daec` run on 40 000 of them took 1.9 s against 0.34 s,
    // on a 2-core x86-64 host).
    const N: usize = 20_000;
    let mut ir = String::new();
    for k in 0..N {
        ir += &format!("global g{k} a{k} : 1 x i64\n");
    }
    ir += "\ntask fn many() {\nbb0:\n  jump bb1(0)\nbb1(bb1p0: i64):\n";
    let mut level: Vec<usize> = (0..N).collect();
    for k in 0..N {
        ir += &format!("  v{k}: i64 = load @g{k}\n");
    }
    // A balanced sum: depth log2(N), not N.
    let mut next = N;
    while level.len() > 1 {
        let mut sums: Vec<usize> = Vec::new();
        for pair in level.chunks(2) {
            if let [a, b] = pair {
                ir += &format!("  v{next}: i64 = iadd v{a}, v{b}\n");
                sums.push(next);
                next += 1;
            } else {
                sums.push(pair[0]);
            }
        }
        level = sums;
    }
    ir +=
        &format!("  v{next}: bool = icmp lt bb1p0, v{}\n  br v{next}, bb2, bb3\nbb2:\n", level[0]);
    for k in 0..N {
        ir += &format!("  v{}: i64 = load @g{k}\n", next + 1 + k);
    }
    let step = next + 1 + N;
    ir += &format!("  v{step}: i64 = iadd bb1p0, 1\n  jump bb1(v{step})\nbb3:\n  ret\n}}\n");
    assert!(ir.len() < MAX_FRAME_BYTES * 3 / 4, "the request fits one frame");

    let engine = Engine::new(&EngineConfig::default());
    let compiled = engine.handle(&work_request("compile", &ir)).expect("the skeleton path answers");
    let module = compiled.get("module").and_then(JsonValue::as_str).expect("a printed module");
    assert!(module.contains("many__access"), "an access phase was generated");
    let prefetches = module.lines().filter(|l| l.trim_start().starts_with("prefetch @g"));
    assert_eq!(prefetches.count(), N, "one prefetch per global, however often it is loaded");
}

/// A task whose loop bound is a chain of `n` `iadd`s, each adding a load
/// to the sum before it: every analysis that follows the bound's operands
/// meets a chain `n` deep.
fn deep_bound_module(n: usize) -> String {
    let mut ir = String::from(
        "global g0 a : 8 x i64\n\ntask fn deep() {\nbb0:\n  jump bb1(0)\nbb1(bb1p0: i64):\n  v0: i64 = load @g0\n",
    );
    for k in 0..n {
        let (load, sum) = (2 * k + 1, 2 * k + 2);
        ir += &format!("  v{load}: i64 = load @g0\n  v{sum}: i64 = iadd v{}, v{load}\n", 2 * k);
    }
    let (cond, step) = (2 * n + 1, 2 * n + 2);
    ir += &format!(
        "  v{cond}: bool = icmp lt bb1p0, v{}\n  br v{cond}, bb2, bb3\nbb2:\n  \
         v{step}: i64 = iadd bb1p0, 1\n  jump bb1(v{step})\nbb3:\n  ret\n}}\n",
        2 * n
    );
    ir
}

#[test]
fn a_bound_twenty_eight_thousand_additions_deep_leaves_the_daemon_answering() {
    use std::io::{BufRead, BufReader, Write};
    use std::process::{Command, Stdio};
    // A worker thread's stack is a few MiB; an analysis that recursed once
    // per operand level overflowed it here, which no `catch_unwind` turns
    // into an error: the whole `daed` process died with the frame
    // unanswered.
    let ir = deep_bound_module(28_000);
    assert!(ir.len() < MAX_FRAME_BYTES, "the request fits one frame");
    /// Kills the daemon however the test ends.
    struct Daemon(std::process::Child);
    impl Drop for Daemon {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
    let mut daed = Daemon(
        Command::new(env!("CARGO_BIN_EXE_daed"))
            .args(["--addr", "127.0.0.1:0", "--workers", "1"])
            .stdout(Stdio::piped())
            .spawn()
            .expect("daed spawns"),
    );
    let mut first = String::new();
    BufReader::new(daed.0.stdout.as_mut().expect("piped")).read_line(&mut first).expect("announce");
    let addr = first.trim().strip_prefix("daed: listening on ").expect("address line").to_string();
    let stream = std::net::TcpStream::connect(&addr).expect("connect to daed");
    let (mut writer, mut reader) = (stream.try_clone().unwrap(), BufReader::new(stream));
    let mut roundtrip = |frame: String| {
        writer.write_all(format!("{frame}\n").as_bytes()).expect("send");
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        line
    };
    let compile =
        JsonValue::obj([("id", 1u64.into()), ("op", "compile".into()), ("ir", ir.as_str().into())]);
    let answer = roundtrip(compile.to_json_string());
    let health = roundtrip(r#"{"id":2,"op":"health"}"#.to_string());
    drop(daed);
    let answer = parse(answer.trim()).expect("the frame is answered with JSON");
    if answer.get("ok").and_then(JsonValue::as_bool) != Some(true) {
        let code = answer.get("error").and_then(|e| e.get("code")).and_then(JsonValue::as_str);
        assert_structured(code.expect("an error carries a code"));
    }
    let health = parse(health.trim()).expect("the next frame is answered too");
    assert_eq!(health.get("ok").and_then(JsonValue::as_bool), Some(true), "{health:?}");

    // The offline compiler reads the same text to the end.
    let path = std::env::temp_dir().join(format!("deep_bound_{}.dae", std::process::id()));
    std::fs::write(&path, &ir).expect("write the module");
    let out = Command::new(env!("CARGO_BIN_EXE_daec")).arg(&path).output().expect("daec runs");
    let _ = std::fs::remove_file(&path);
    assert!(out.status.success(), "daec: {}", String::from_utf8_lossy(&out.stderr));
}

/// A task with a chain of `n` selects whose conditions fold one round
/// after another, and `n` additions that each use the chain's head.
/// `c_i = not c_{i-1}` folds in round `i`, so `x_i = select c_i, …`
/// folds to `x_{i+1}` in round `i + 1`, and each addition sees its
/// operand move one link down the chain in every one of `n` rounds.
fn select_chain_module(n: usize) -> String {
    let mut ir = String::from("global g0 a : 8 x i64\n\ntask fn chain(arg0: i64) {\nbb0:\n");
    // c_i is v{i - 1}; x_i is v{2n + 1 - i}, defined from x_{n+1} = v{n} down.
    ir += "  v0: bool = not true\n";
    for i in 2..=n {
        ir += &format!("  v{}: bool = not v{}\n", i - 1, i - 2);
    }
    ir += &format!("  v{n}: i64 = iadd arg0, 1\n");
    for i in (1..=n).rev() {
        let (x, next, c) = (2 * n + 1 - i, 2 * n - i, i - 1);
        // c_i is true for even i: the chain goes on through the arm it takes.
        let arms = if i % 2 == 0 { format!("v{next}, arg0") } else { format!("arg0, v{next}") };
        ir += &format!("  v{x}: i64 = select v{c}, {arms}\n");
    }
    let head = 2 * n;
    ir += &format!("  v{}: i64 = iadd v{head}, arg0\n", head + 1);
    for k in head + 2..=head + n {
        ir += &format!("  v{k}: i64 = iadd v{}, v{head}\n", k - 1);
    }
    ir += &format!("  store @g0, v{}\n  ret\n}}\n", head + n);
    ir
}

#[test]
fn a_select_chain_that_folds_a_link_a_round_compiles_promptly() {
    use std::sync::mpsc;
    use std::time::Duration;
    // A 200 KB request. Constant folding tried each addition's rounds from
    // its operands as written, walking the chain again every round: cubic
    // in the chain, 8 s at 1 200 links and no answer within a minute at
    // 2 400 on a 2-core x86-64 host, where this one now takes about a
    // second in a debug build. Trying each addition only at the rounds its
    // operands changed in was still quadratic: no answer within 30 s at
    // 20 000 links (2.1 MB) in a debug build, where folding each
    // instruction once takes under a second for both sizes.
    for links in [2_000, 20_000] {
        let ir = select_chain_module(links);
        let (done, finished) = mpsc::channel();
        std::thread::spawn(move || {
            let engine = Engine::new(&EngineConfig::default());
            let _ = done.send(engine.handle(&work_request("compile", &ir)));
        });
        let answer = finished.recv_timeout(Duration::from_secs(30)).expect("answered within 30 s");
        if let Err(e) = answer {
            assert_structured(&e.code);
        }
    }
}

/// A task whose loads go through a chain of `n` selects, each choosing
/// between two copies of the link before it.
fn pointer_select_chain_module(n: usize) -> String {
    let mut ir = String::from(
        "global g0 a : 64 x f64\n\ntask fn pick(arg0: i64) {\nbb0:\n  jump bb1(0)\n\
         bb1(bb1p0: i64):\n  v0: bool = icmp lt bb1p0, 64\n  br v0, bb2, bb3\nbb2:\n  \
         v1: i64 = imul bb1p0, 8\n  v2: ptr = ptradd @g0, v1\n  v3: bool = icmp lt bb1p0, arg0\n",
    );
    // The links are v4, v5, …; the first chooses between two copies of v2.
    for k in 4..n + 4 {
        let prev = if k == 4 { 2 } else { k - 1 };
        ir += &format!("  v{k}: ptr = select v3, v{prev}, v{prev}\n");
    }
    let (p, x, y, step) = (n + 3, n + 4, n + 5, n + 6);
    ir += &format!(
        "  v{x}: f64 = load v{p}\n  v{y}: f64 = fadd v{x}, 1.0\n  store v2, v{y}\n  \
         v{step}: i64 = iadd bb1p0, 1\n  jump bb1(v{step})\nbb3:\n  ret\n}}\n"
    );
    ir
}

#[test]
fn a_forty_link_pointer_select_chain_is_answered_promptly() {
    use std::io::{BufRead, BufReader, Write};
    use std::process::{Command, Stdio};
    use std::time::Duration;
    // Tracing a load's base followed both arms of every select: 2^40 steps
    // for this 2 KB text, which held the daemon's one worker for hours.
    let ir = pointer_select_chain_module(40);
    assert!(ir.len() < 2_100, "{} bytes", ir.len());
    /// Kills the daemon however the test ends.
    struct Daemon(std::process::Child);
    impl Drop for Daemon {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
    let mut daed = Daemon(
        Command::new(env!("CARGO_BIN_EXE_daed"))
            .args(["--addr", "127.0.0.1:0", "--workers", "1"])
            .stdout(Stdio::piped())
            .spawn()
            .expect("daed spawns"),
    );
    let mut first = String::new();
    BufReader::new(daed.0.stdout.as_mut().expect("piped")).read_line(&mut first).expect("announce");
    let addr = first.trim().strip_prefix("daed: listening on ").expect("address line").to_string();
    let stream = std::net::TcpStream::connect(&addr).expect("connect to daed");
    stream.set_read_timeout(Some(Duration::from_secs(1))).expect("read timeout");
    let (mut writer, mut reader) = (stream.try_clone().unwrap(), BufReader::new(stream));
    let mut roundtrip = |frame: String| {
        writer.write_all(format!("{frame}\n").as_bytes()).expect("send");
        let mut line = String::new();
        reader.read_line(&mut line).expect("answered within 1 s");
        parse(line.trim()).expect("the frame is answered with JSON")
    };
    let compile =
        JsonValue::obj([("id", 1u64.into()), ("op", "compile".into()), ("ir", ir.as_str().into())]);
    let answer = roundtrip(compile.to_json_string());
    assert_eq!(answer.get("ok").and_then(JsonValue::as_bool), Some(true), "{answer:?}");
    let health = roundtrip(r#"{"id":2,"op":"health"}"#.to_string());
    assert_eq!(health.get("ok").and_then(JsonValue::as_bool), Some(true), "{health:?}");
}
