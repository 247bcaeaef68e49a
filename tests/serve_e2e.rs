//! End-to-end tests of the `daed` daemon over real TCP.
//!
//! Each test spawns the actual binary on an ephemeral port (the daemon
//! prints `daed: listening on <addr>` as its first stdout line precisely
//! so harnesses like this can scrape it), drives it with real clients,
//! and checks the protocol's three load-bearing promises: responses are
//! byte-identical to a direct serial engine run at any worker count,
//! a drain finishes admitted work before refusing new work, and overload
//! sheds with `serve.overloaded` instead of buffering without bound.

use dae_repro::serve::proto::{ok_response_raw, parse_request};
use dae_repro::serve::{codes, Engine, EngineConfig};
use dae_repro::trace::json::{parse, JsonValue};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};

/// A `daed` process on an ephemeral port, killed on drop so a failing
/// test cannot leak a daemon into the test host.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn spawn(extra_args: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_daed"))
            .args(["--addr", "127.0.0.1:0"])
            .args(extra_args)
            .stdout(Stdio::piped())
            .spawn()
            .expect("daed spawns");
        let stdout = child.stdout.as_mut().expect("stdout is piped");
        let mut first = String::new();
        BufReader::new(stdout).read_line(&mut first).expect("daed announces its address");
        let addr = first
            .trim()
            .strip_prefix("daed: listening on ")
            .unwrap_or_else(|| panic!("unexpected first line: {first:?}"))
            .to_string();
        Daemon { child, addr }
    }

    fn connect(&self) -> Client {
        let stream = TcpStream::connect(&self.addr).expect("connect to daed");
        stream.set_nodelay(true).unwrap();
        Client { writer: stream.try_clone().unwrap(), reader: BufReader::new(stream) }
    }

    /// Asks for a drain and waits for the process to exit cleanly.
    fn shutdown_and_wait(mut self) {
        let mut c = self.connect();
        let line = c.roundtrip(r#"{"id":"bye","op":"shutdown"}"#);
        assert!(line.contains("\"draining\":true"), "{line}");
        let status = self.child.wait().expect("daed exits");
        assert!(status.success(), "daed exited with {status}");
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Writes `frame` and its newline in one write.
    fn try_send(&mut self, frame: &str) -> std::io::Result<()> {
        let mut line = Vec::with_capacity(frame.len() + 1);
        line.extend_from_slice(frame.as_bytes());
        line.push(b'\n');
        self.writer.write_all(&line)
    }

    fn send(&mut self, frame: &str) {
        self.try_send(frame).unwrap();
    }

    /// Reads one response line (without the newline); None on EOF.
    fn recv(&mut self) -> Option<String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => None,
            Ok(_) => Some(line.trim_end_matches('\n').to_string()),
            Err(_) => None,
        }
    }

    fn roundtrip(&mut self, frame: &str) -> String {
        self.send(frame);
        self.recv().expect("server answered")
    }
}

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

/// A family of distinct programs (distinct loop bounds) so a burst of
/// them defeats the response cache and actually exercises the queue.
fn program(bound: u64) -> String {
    STREAM.replace("1024", &bound.to_string())
}

fn work_frame(id: &str, op: &str, ir: &str) -> String {
    JsonValue::obj([
        ("id", id.into()),
        ("op", op.into()),
        ("ir", ir.into()),
        ("hints", JsonValue::Arr(vec![64u64.into()])),
    ])
    .to_json_string()
}

/// The reference answer: a fresh single-use engine handling the same
/// request inline, serialised exactly as the server would serialise it.
fn direct_reference(frame: &str) -> String {
    let req = parse_request(frame).expect("frame is valid");
    let engine = Engine::new(&EngineConfig::default());
    let result = engine.handle_raw(&req).expect("reference run succeeds");
    ok_response_raw(&req.id, &result)
}

#[test]
fn responses_are_byte_identical_across_worker_counts_and_cache_states() {
    let frames: Vec<String> = [("c1", "compile"), ("r1", "report"), ("x1", "run")]
        .iter()
        .map(|(id, op)| work_frame(id, op, STREAM))
        .collect();
    let references: Vec<String> = frames.iter().map(|f| direct_reference(f)).collect();

    for workers in ["1", "4"] {
        let daemon = Daemon::spawn(&["--workers", workers]);
        let mut client = daemon.connect();
        // Twice: the first pass is cold, the second is served warm from
        // the response cache — the bytes must not care.
        for pass in 0..2 {
            for (frame, want) in frames.iter().zip(&references) {
                let got = client.roundtrip(frame);
                assert_eq!(
                    &got, want,
                    "workers={workers} pass={pass}: served bytes diverge from direct run"
                );
            }
        }
        daemon.shutdown_and_wait();
    }
}

#[test]
fn parallel_clients_each_get_the_right_answer() {
    let daemon = Daemon::spawn(&["--workers", "4"]);
    let n_clients = 4;
    let per_client = 6;
    // Overlapping but not identical workloads: client k compiles bounds
    // 256+k, 256+k+1, ... so neighbours share most programs.
    std::thread::scope(|scope| {
        for k in 0..n_clients {
            let daemon = &daemon;
            scope.spawn(move || {
                let mut client = daemon.connect();
                for j in 0..per_client {
                    let ir = program(256 + (k + j) as u64);
                    let frame = work_frame(&format!("c{k}-{j}"), "compile", &ir);
                    let got = client.roundtrip(&frame);
                    assert_eq!(got, direct_reference(&frame), "client {k} request {j}");
                }
            });
        }
    });
    daemon.shutdown_and_wait();
}

#[test]
fn graceful_drain_finishes_admitted_work_then_refuses_new() {
    let mut daemon = Daemon::spawn(&["--workers", "1"]);
    let mut client = daemon.connect();
    // Pipeline a work request immediately followed by shutdown on the
    // same connection: the work frame is admitted first (frames on one
    // connection are handled in order), so its answer must still come.
    client.send(&work_frame("w", "compile", STREAM));
    client.send(r#"{"id":"bye","op":"shutdown"}"#);
    let first = client.recv().expect("admitted work is answered");
    let second = client.recv().expect("shutdown is acknowledged");
    // The worker and the reader race for the socket, so the two lines
    // may arrive in either order; sort them out by id.
    let (work, ack) =
        if first.contains("\"id\":\"w\"") { (first, second) } else { (second, first) };
    assert!(work.contains("\"ok\":true"), "admitted work completed: {work}");
    assert!(ack.contains("\"draining\":true"), "{ack}");
    // New work after the drain started is refused, not executed. The
    // daemon may already have exited, in which case the connect or the
    // write fails (a broken pipe when it exits between the two) — both
    // are refusals; a success is the bug. Only a response that arrives
    // has anything to check.
    if let Ok(stream) = TcpStream::connect(&daemon.addr) {
        stream.set_nodelay(true).unwrap();
        let mut late =
            Client { writer: stream.try_clone().unwrap(), reader: BufReader::new(stream) };
        let sent = late.try_send(&work_frame("late", "compile", STREAM)).is_ok();
        if let Some(resp) = sent.then(|| late.recv()).flatten() {
            assert!(
                resp.contains(codes::DRAINING),
                "late work must be refused with serve.draining: {resp}"
            );
        }
    }
    let status = daemon.child.wait().expect("daed exits");
    assert!(status.success());
}

/// The bytes of a response's first `"cae":{...}` object — `tasks[0]`'s
/// coupled baseline (the object is flat, so it ends at the first `}`).
fn first_cae(line: &str) -> &str {
    let start = line.find("\"cae\":{").unwrap_or_else(|| panic!("no cae object: {line}"));
    let len = line[start..].find('}').expect("the cae object closes") + 1;
    &line[start..start + len]
}

#[test]
fn a_second_policy_reuses_the_baseline() {
    let daemon = Daemon::spawn(&["--workers", "2"]);
    let mut client = daemon.connect();
    let frame = work_frame("run", "run", STREAM);
    let first = client.roundtrip(&frame);
    assert_eq!(first, direct_reference(&frame), "served bytes match a direct run");

    // The baseline does not depend on the policy: the same IR under
    // another policy reuses the memoised `cae` pair, byte for byte.
    let phases = JsonValue::obj([
        ("id", "phases".into()),
        ("op", "run".into()),
        ("ir", STREAM.into()),
        ("hints", JsonValue::Arr(vec![64u64.into()])),
        ("policy", "dae-phases:1.6,3.4".into()),
    ]);
    let second = client.roundtrip(&phases.to_json_string());
    assert!(second.contains("\"ok\":true"), "{second}");
    assert_eq!(first_cae(&second), first_cae(&first), "baseline changed across policies");

    let stats = parse(&client.roundtrip(r#"{"id":"s","op":"stats"}"#)).expect("stats is JSON");
    let hits = stats
        .get("result")
        .and_then(|r| r.get("cache"))
        .and_then(|c| c.get("baseline_hits"))
        .and_then(JsonValue::as_f64)
        .unwrap_or(0.0);
    assert!(hits >= 1.0, "the dae-phases run missed the baseline memo");

    daemon.shutdown_and_wait();
}

/// `daed` keeps no phase profiles (they are collected and fed back
/// offline, by `daec --profile-*`), so `profiles` is not an op: the frame
/// is refused like any unknown op, counted as a bad request, and the
/// connection goes on serving.
#[test]
fn a_profiles_frame_is_refused_as_an_unknown_op() {
    let daemon = Daemon::spawn(&["--workers", "1"]);
    let mut client = daemon.connect();
    let bad_requests = |client: &mut Client| {
        let stats = parse(&client.roundtrip(r#"{"id":"s","op":"stats"}"#)).expect("stats is JSON");
        let result = stats.get("result").expect("stats has a result");
        assert!(result.get("pgo").is_none(), "stats carries no profile counters");
        result
            .get("requests")
            .and_then(|r| r.get("bad_requests"))
            .and_then(JsonValue::as_f64)
            .expect("stats counts bad requests")
    };
    let before = bad_requests(&mut client);

    let line = client.roundtrip(r#"{"id":"p","op":"profiles"}"#);
    let v = parse(&line).expect("well-formed error response");
    assert_eq!(v.get("id").and_then(JsonValue::as_str), Some("p"), "id echoed: {line}");
    assert_eq!(v.get("ok").and_then(JsonValue::as_bool), Some(false), "{line}");
    let code = v.get("error").and_then(|e| e.get("code")).and_then(JsonValue::as_str);
    assert_eq!(code, Some(codes::BAD_REQUEST), "{line}");

    // The same connection answers the next frames.
    assert_eq!(bad_requests(&mut client), before + 1.0);
    let health = parse(&client.roundtrip(r#"{"id":"h","op":"health"}"#)).expect("health is JSON");
    let result = health.get("result").expect("health has a result");
    assert_eq!(result.get("status").and_then(JsonValue::as_str), Some("ok"));
    assert!(result.get("pgo").is_none(), "health carries no profile counters");
    daemon.shutdown_and_wait();
}

#[test]
fn overload_sheds_with_a_structured_error_instead_of_buffering() {
    let daemon = Daemon::spawn(&["--workers", "1", "--queue-depth", "1"]);
    let mut client = daemon.connect();
    // Pipeline a burst of *distinct* run requests (distinct bounds defeat
    // the response cache) without reading anything back: the reader
    // admits them far faster than one worker simulates them.
    let burst = 24;
    for i in 0..burst {
        client.send(&work_frame(&format!("b{i}"), "run", &program(400 + i)));
    }
    let mut ok = 0;
    let mut shed = 0;
    for _ in 0..burst {
        let line = client.recv().expect("every admitted or shed frame is answered");
        let v = parse(&line).expect("well-formed response");
        if v.get("ok").and_then(JsonValue::as_bool) == Some(true) {
            ok += 1;
        } else {
            let code = v
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(JsonValue::as_str)
                .unwrap_or("")
                .to_string();
            assert_eq!(code, codes::OVERLOADED, "only overload errors expected: {line}");
            shed += 1;
        }
    }
    assert!(ok > 0, "some of the burst is served");
    assert!(shed > 0, "a depth-1 queue under a 24-deep burst must shed");
    daemon.shutdown_and_wait();
}
