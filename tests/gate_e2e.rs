//! End-to-end tests of the `daeg` gateway over real TCP.
//!
//! The first test exercises the headline fault-tolerance promise: with
//! three `daed` backends behind one gateway, SIGKILL-ing a backend in
//! the middle of a client burst must be invisible — every request still
//! succeeds, and every response is byte-identical to a fresh single
//! engine handling the same frame directly. The remaining tests fuzz the
//! *backend-facing* side through the deterministic fault proxy: garbled,
//! truncated and connection-dropping backend frames must never panic the
//! gateway and must surface to clients only as structured dotted codes.

use dae_repro::gate::{FaultPlan, FaultProxy, GateConfig, Gateway, Ring};
use dae_repro::serve::load::shutdown;
use dae_repro::serve::proto::{ok_response_raw, parse_request};
use dae_repro::serve::{codes, request_key, Engine, EngineConfig, Server, ServerConfig};
use dae_repro::trace::json::{parse, JsonValue};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A spawned daemon (`daed` or `daeg`) on an ephemeral port, killed on
/// drop so a failing test cannot leak processes into the test host.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn spawn(exe: &str, announce: &str, args: &[&str]) -> Daemon {
        let mut child = Command::new(exe)
            .args(["--addr", "127.0.0.1:0"])
            .args(args)
            .stdout(Stdio::piped())
            .spawn()
            .expect("daemon spawns");
        let stdout = child.stdout.as_mut().expect("stdout is piped");
        let mut first = String::new();
        BufReader::new(stdout).read_line(&mut first).expect("daemon announces its address");
        let addr = first
            .trim()
            .strip_prefix(announce)
            .unwrap_or_else(|| panic!("unexpected first line: {first:?}"))
            .to_string();
        Daemon { child, addr }
    }

    fn spawn_daed(args: &[&str]) -> Daemon {
        Daemon::spawn(env!("CARGO_BIN_EXE_daed"), "daed: listening on ", args)
    }

    fn spawn_daeg(args: &[&str]) -> Daemon {
        Daemon::spawn(env!("CARGO_BIN_EXE_daeg"), "daeg: listening on ", args)
    }

    fn connect(&self) -> Client {
        Client::connect(&self.addr)
    }

    /// Asks for a drain and waits for the process to exit cleanly.
    fn shutdown_and_wait(mut self) {
        let mut c = self.connect();
        let line = c.roundtrip(r#"{"id":"bye","op":"shutdown"}"#);
        assert!(line.contains("\"draining\":true"), "{line}");
        let status = self.child.wait().expect("daemon exits");
        assert!(status.success(), "daemon exited with {status}");
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
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to daemon");
        stream.set_nodelay(true).unwrap();
        Client { writer: stream.try_clone().unwrap(), reader: BufReader::new(stream) }
    }

    fn send(&mut self, frame: &str) {
        self.writer.write_all(frame.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
    }

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
        self.recv().expect("daemon answered")
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

/// Distinct loop bounds make distinct programs (and distinct route keys,
/// so the burst spreads across the whole ring).
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
/// request inline, serialised exactly as a backend would serialise it.
/// The gateway forwards successful backend responses verbatim, so the
/// bytes through three backends and a retry must equal these bytes.
fn direct_reference(frame: &str) -> String {
    let req = parse_request(frame).expect("frame is valid");
    let engine = Engine::new(&EngineConfig::default());
    let result = engine.handle_raw(&req).expect("reference run succeeds");
    ok_response_raw(&req.id, &result)
}

/// Every error escaping the gateway uses the `<layer>.<class>` dotted
/// vocabulary (`gate.*` for gateway-originated failures, `serve.*` for
/// backend errors passed through); anything else leaked internals.
fn assert_dotted(code: &str, line: &str) {
    assert!(
        code.contains('.') && code.split('.').all(|p| !p.is_empty()),
        "error code `{code}` is not a dotted layer.class code: {line}"
    );
    assert!(
        code.starts_with("gate.") || code.starts_with("serve."),
        "error code `{code}` from an unknown layer: {line}"
    );
}

#[test]
fn killing_one_of_three_backends_loses_no_requests() {
    let mut backends: Vec<Daemon> =
        (0..3).map(|_| Daemon::spawn_daed(&["--workers", "2"])).collect();
    let fleet = backends.iter().map(|b| b.addr.clone()).collect::<Vec<_>>().join(",");
    let gateway = Daemon::spawn_daeg(&[
        "--backends",
        &fleet,
        "--probe-ms",
        "20",
        "--eject-after",
        "2",
        "--retries",
        "3",
        "--attempt-timeout-ms",
        "5000",
    ]);

    // The victim leaves the fleet vec so the killer thread can own it;
    // the two survivors stay alive for the whole burst.
    let victim = backends.pop().expect("three backends spawned");

    let n_clients = 4;
    let per_client = 12;
    let total = n_clients * per_client;
    let done = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        // SIGKILL the victim once a third of the burst has completed, so
        // most of the burst runs while the fleet is degrading: pooled
        // connections into the corpse, a probe-driven ejection, and
        // rerouted retries all happen under live traffic.
        let done_ref = &done;
        scope.spawn(move || {
            let mut victim = victim;
            while done_ref.load(Ordering::Relaxed) < total / 3 {
                std::thread::sleep(Duration::from_millis(1));
            }
            victim.child.kill().expect("SIGKILL the victim backend");
            let _ = victim.child.wait();
        });
        for k in 0..n_clients {
            let gateway = &gateway;
            scope.spawn(move || {
                let mut client = gateway.connect();
                for j in 0..per_client {
                    // Overlapping bounds across clients: some requests
                    // are warm cache hits, some are cold, and their ring
                    // homes spread over all three backends.
                    let ir = program(200 + (k * per_client / 2 + j) as u64);
                    let op = if j % 3 == 0 { "run" } else { "compile" };
                    let frame = work_frame(&format!("g{k}-{j}"), op, &ir);
                    let got = client.roundtrip(&frame);
                    assert_eq!(
                        got,
                        direct_reference(&frame),
                        "client {k} request {j}: bytes through the gateway diverge"
                    );
                    done_ref.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(done.load(Ordering::Relaxed), total);

    // The probes must have noticed the corpse: the gateway's own stats
    // record at least one ejection, and health sees at most two up.
    let mut c = gateway.connect();
    let stats = parse(&c.roundtrip(r#"{"id":"s","op":"stats"}"#)).expect("stats is JSON");
    let ejects = stats
        .get("result")
        .and_then(|r| r.get("ejects"))
        .and_then(JsonValue::as_f64)
        .expect("stats carries an ejects counter");
    assert!(ejects >= 1.0, "killing a backend must surface as an ejection: {stats:?}");
    let health = parse(&c.roundtrip(r#"{"id":"h","op":"health"}"#)).expect("health is JSON");
    let up = health
        .get("result")
        .and_then(|r| r.get("backends_up"))
        .and_then(JsonValue::as_f64)
        .expect("health carries backends_up");
    assert!(up <= 2.0, "the killed backend must not count as up: {health:?}");

    gateway.shutdown_and_wait();
    for b in backends {
        b.shutdown_and_wait();
    }
}

#[test]
fn gateway_keeps_draining_fleet_invisible_until_the_end() {
    // A backend that announces `draining` is taken out of rotation by the
    // probes without any client-visible failure: requests homed on it
    // reroute to the survivor.
    let keeper = Daemon::spawn_daed(&["--workers", "2"]);
    let leaver = Daemon::spawn_daed(&["--workers", "2"]);
    let fleet = format!("{},{}", keeper.addr, leaver.addr);
    let gateway = Daemon::spawn_daeg(&["--backends", &fleet, "--probe-ms", "20", "--retries", "2"]);

    let mut client = gateway.connect();
    for j in 0..6 {
        let frame = work_frame(&format!("w{j}"), "compile", &program(500 + j));
        assert_eq!(client.roundtrip(&frame), direct_reference(&frame), "warm-up request {j}");
    }

    // Start the leaver's drain directly (not through the gateway).
    leaver.shutdown_and_wait();

    // Wait for a probe cycle to mark it, then keep asking: every request
    // must still succeed, routed entirely to the keeper.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let health = parse(&client.roundtrip(r#"{"id":"h","op":"health"}"#)).unwrap();
        let up = health
            .get("result")
            .and_then(|r| r.get("backends_up"))
            .and_then(JsonValue::as_f64)
            .unwrap_or(2.0);
        if up <= 1.0 {
            break;
        }
        assert!(Instant::now() < deadline, "probes never noticed the drained backend");
        std::thread::sleep(Duration::from_millis(20));
    }
    for j in 0..8 {
        let frame = work_frame(&format!("a{j}"), "compile", &program(520 + j));
        assert_eq!(
            client.roundtrip(&frame),
            direct_reference(&frame),
            "request {j} after the drain must reroute cleanly"
        );
    }

    gateway.shutdown_and_wait();
    keeper.shutdown_and_wait();
}

/// The gateway speaks `daed`'s protocol, so `profiles` is not an op
/// there either: the gateway refuses the frame itself, as it refuses any
/// unknown op (the backend never sees it), counts it, and the connection
/// goes on serving. No backend entry in `stats` carries profile counters.
#[test]
fn a_profiles_frame_is_refused_as_an_unknown_op() {
    let backend = Daemon::spawn_daed(&["--workers", "1"]);
    let gateway = Daemon::spawn_daeg(&["--backends", &backend.addr, "--probe-ms", "20"]);
    let mut client = gateway.connect();
    let stats = |client: &mut Client| {
        let line = client.roundtrip(r#"{"id":"s","op":"stats"}"#);
        parse(&line).expect("stats is JSON").get("result").expect("stats has a result").clone()
    };
    let count = |stats: &JsonValue| {
        stats.get("bad_requests").and_then(JsonValue::as_f64).expect("stats counts bad requests")
    };
    let before = count(&stats(&mut client));

    let line = client.roundtrip(r#"{"id":"p","op":"profiles"}"#);
    let v = parse(&line).expect("well-formed error response");
    assert_eq!(v.get("id").and_then(JsonValue::as_str), Some("p"), "id echoed: {line}");
    assert_eq!(v.get("ok").and_then(JsonValue::as_bool), Some(false), "{line}");
    let code = v.get("error").and_then(|e| e.get("code")).and_then(JsonValue::as_str);
    assert_eq!(code, Some(codes::BAD_REQUEST), "{line}");

    // The same connection answers the next frames, work included.
    let after = stats(&mut client);
    assert_eq!(count(&after), before + 1.0);
    let backends = after.get("backends").and_then(JsonValue::as_arr).expect("backends array");
    assert!(backends[0].get("pgo").is_none(), "backend entries carry no profile counters");
    let frame = work_frame("w", "compile", STREAM);
    assert_eq!(client.roundtrip(&frame), direct_reference(&frame));

    let line = backend.connect().roundtrip(r#"{"id":"s","op":"stats"}"#);
    let backend_bad = parse(&line)
        .ok()
        .and_then(|v| v.get("result")?.get("requests")?.get("bad_requests")?.as_f64());
    assert_eq!(backend_bad, Some(0.0), "the frame never reached the backend: {line}");
    gateway.shutdown_and_wait();
    backend.shutdown_and_wait();
}

/// The gateway's `stats` body, asked on a fresh connection.
fn gate_stats(addr: &str) -> JsonValue {
    let line = Client::connect(addr).roundtrip(r#"{"id":"s","op":"stats"}"#);
    parse(&line).expect("stats is JSON").get("result").expect("stats has a result").clone()
}

/// Backend `i`'s entry in a gateway `stats` body.
fn backend_stat<'a>(stats: &'a JsonValue, i: usize, field: &str) -> &'a JsonValue {
    let backends = stats.get("backends").and_then(JsonValue::as_arr).expect("backends array");
    backends[i].get(field).unwrap_or_else(|| panic!("backend {i} has no `{field}`"))
}

/// A frame its reader forwards itself (alone on its connection, nothing
/// queued) is admitted work like any queued one: a `shutdown` arriving
/// while the forward waits on a slow backend must not let `Gateway::run`
/// return before that frame is answered.
#[test]
fn an_inline_forward_is_answered_before_the_gateway_returns() {
    let server =
        Server::bind(&ServerConfig { workers: 1, queue_depth: 8, ..ServerConfig::default() })
            .expect("backend binds");
    let backend_addr = server.local_addr().expect("backend addr").to_string();
    let server_handle = std::thread::spawn(move || server.run());
    // Every backend line arrives 300 ms late.
    let plan = FaultPlan { delay_pm: 1000, delay_ms: 300, ..FaultPlan::clean(3) };
    let proxy = FaultProxy::start(backend_addr.clone(), plan).expect("proxy starts");
    let gateway = Gateway::bind(&GateConfig {
        backends: vec![proxy.addr()],
        routers: 2,
        probe_interval_ms: 0,
        ..GateConfig::default()
    })
    .expect("gateway binds");
    let gate_addr = gateway.local_addr().expect("gateway addr").to_string();
    let gate_handle = std::thread::spawn(move || gateway.run());

    let frame = work_frame("slow", "compile", &program(900));
    let mut slow = Client::connect(&gate_addr);
    slow.send(&frame);
    let deadline = Instant::now() + Duration::from_secs(5);
    while gate_stats(&gate_addr).get("inline").and_then(JsonValue::as_f64) != Some(1.0) {
        assert!(Instant::now() < deadline, "the lone frame was never forwarded inline");
        std::thread::sleep(Duration::from_millis(5));
    }
    shutdown(&gate_addr).expect("gateway drains");
    gate_handle.join().expect("gateway thread must not panic").expect("gateway run ok");

    // `run` has returned, so the answer is already on the socket.
    slow.reader.get_ref().set_read_timeout(Some(Duration::from_millis(50))).unwrap();
    let answer = slow.recv().expect("the inline frame was answered before `run` returned");
    assert_eq!(answer, direct_reference(&frame));

    proxy.stop();
    shutdown(&backend_addr).expect("backend drains");
    server_handle.join().expect("backend thread must not panic").expect("backend run ok");
}

/// A half-open backend's one trial belongs to the request actually sent
/// there. A request homed elsewhere only walks past it on the ring; were
/// it to claim the trial, nothing would release it with probes off, and
/// the backend would never serve again.
#[test]
fn a_half_open_trial_goes_to_the_request_sent_there() {
    // Backend A's port is reserved but nothing listens on it yet, so A's
    // first request fails and ejects it.
    let a_addr = {
        let reserved = TcpListener::bind("127.0.0.1:0").expect("reserve a port");
        reserved.local_addr().unwrap().to_string()
    };
    let spawn_backend = |addr: &str| {
        let server = Server::bind(&ServerConfig {
            addr: addr.to_string(),
            workers: 1,
            ..ServerConfig::default()
        })
        .expect("backend binds");
        let addr = server.local_addr().expect("backend addr").to_string();
        (addr, std::thread::spawn(move || server.run()))
    };
    let (b_addr, b_handle) = spawn_backend("127.0.0.1:0");
    let fleet = vec![a_addr.clone(), b_addr.clone()];
    let config = GateConfig {
        backends: fleet.clone(),
        routers: 1,
        eject_after: 1,
        // Long enough that A still reads `ejected` after the first request
        // (a cold compile on B, debug builds included).
        readmit_ms: 500,
        probe_interval_ms: 0,
        ..GateConfig::default()
    };
    let ring = Ring::new(&fleet, config.vnodes);
    let homed_on = |backend: usize, first: u64| {
        (first..)
            .map(|n| work_frame(&format!("h{n}"), "compile", &program(n)))
            .find(|f| ring.home(request_key(&parse_request(f).unwrap())) == Some(backend))
            .expect("some program is homed there")
    };
    let gateway = Gateway::bind(&config).expect("gateway binds");
    let gate_addr = gateway.local_addr().expect("gateway addr").to_string();
    let gate_handle = std::thread::spawn(move || gateway.run());
    let mut client = Client::connect(&gate_addr);

    // A refuses the connection and is ejected; the retry lands on B.
    let frame = homed_on(0, 300);
    assert_eq!(client.roundtrip(&frame), direct_reference(&frame));
    assert_eq!(backend_stat(&gate_stats(&gate_addr), 0, "state").as_str(), Some("ejected"));

    // A comes up; after the cooldown it is half-open.
    let (_, a_handle) = spawn_backend(&a_addr);
    std::thread::sleep(Duration::from_millis(600));
    assert_eq!(backend_stat(&gate_stats(&gate_addr), 0, "state").as_str(), Some("half-open"));

    // A request homed on B passes A on its ring walk but is sent to B ...
    let frame = homed_on(1, 400);
    assert_eq!(client.roundtrip(&frame), direct_reference(&frame));
    // ... so A's trial is still free for the next request homed on A.
    let frame = homed_on(0, 500);
    assert_eq!(client.roundtrip(&frame), direct_reference(&frame));
    let stats = gate_stats(&gate_addr);
    assert_eq!(backend_stat(&stats, 0, "state").as_str(), Some("up"), "{stats:?}");
    assert_eq!(backend_stat(&stats, 0, "ok").as_f64(), Some(1.0), "A served its trial");

    shutdown(&gate_addr).expect("gateway drains");
    gate_handle.join().expect("gateway thread must not panic").expect("gateway run ok");
    for (addr, handle) in [(a_addr, a_handle), (b_addr, b_handle)] {
        shutdown(&addr).expect("backend drains");
        handle.join().expect("backend thread must not panic").expect("backend run ok");
    }
}

/// Spins up a full in-process chain — engine server, fault proxy,
/// gateway — drives `requests` frames through it, and asserts the
/// contract: every frame is answered, answers parse, failures carry
/// dotted codes, and nothing panics (thread joins would propagate).
fn drive_faulty_chain(plan: FaultPlan, requests: usize) -> (usize, usize) {
    let server =
        Server::bind(&ServerConfig { workers: 2, queue_depth: 64, ..ServerConfig::default() })
            .expect("backend binds");
    let backend_addr = server.local_addr().expect("backend addr").to_string();
    let server_handle = std::thread::spawn(move || server.run());

    let proxy = FaultProxy::start(backend_addr.clone(), plan).expect("proxy starts");
    let gateway = Gateway::bind(&GateConfig {
        backends: vec![proxy.addr()],
        routers: 2,
        queue_depth: 64,
        // Fast, bounded recovery: a garbled answer must not stall a case.
        attempt_timeout_ms: 2_000,
        max_retries: 2,
        retry_base_ms: 1,
        retry_cap_ms: 5,
        eject_after: 4,
        readmit_ms: 10,
        probe_interval_ms: 25,
        ..GateConfig::default()
    })
    .expect("gateway binds");
    let gate_addr = gateway.local_addr().expect("gateway addr").to_string();
    let gate_handle = std::thread::spawn(move || gateway.run());

    let mut ok = 0usize;
    let mut failed = 0usize;
    let mut client = Client::connect(&gate_addr);
    for j in 0..requests {
        let frame = work_frame(&format!("f{j}"), "compile", &program(700 + j as u64));
        let line = client.roundtrip(&frame);
        let v = parse(&line).unwrap_or_else(|e| panic!("unparseable gateway answer {e:?}: {line}"));
        match v.get("ok").and_then(JsonValue::as_bool) {
            Some(true) => ok += 1,
            Some(false) => {
                let code = v
                    .get("error")
                    .and_then(|e| e.get("code"))
                    .and_then(JsonValue::as_str)
                    .unwrap_or("");
                assert_dotted(code, &line);
                failed += 1;
            }
            None => panic!("gateway answer without an ok field: {line}"),
        }
    }

    shutdown(&gate_addr).expect("gateway drains");
    gate_handle.join().expect("gateway thread must not panic").expect("gateway run ok");
    proxy.stop();
    shutdown(&backend_addr).expect("backend drains");
    server_handle.join().expect("backend thread must not panic").expect("backend run ok");
    (ok, failed)
}

#[test]
fn clean_proxy_chain_is_fully_transparent() {
    let (ok, failed) = drive_faulty_chain(FaultPlan::clean(1), 8);
    assert_eq!((ok, failed), (8, 0), "a fault-free proxy must be invisible");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Garbled, truncated and connection-closing backend frames — in any
    /// seeded mixture — never panic the gateway, and clients only ever
    /// see verbatim successes or dotted structured errors. Garbling also
    /// covers the interleaving hazard: a corrupted frame whose id no
    /// longer matches the in-flight request must be rejected, not
    /// forwarded to the wrong client.
    #[test]
    fn faulty_backend_frames_never_panic_and_always_code(
        seed in any::<u64>(),
        garble_pm in 0u32..350,
        truncate_pm in 0u32..250,
        close_pm in 0u32..200,
    ) {
        let plan = FaultPlan {
            garble_pm: garble_pm as u16,
            truncate_pm: truncate_pm as u16,
            close_pm: close_pm as u16,
            ..FaultPlan::clean(seed)
        };
        let (ok, failed) = drive_faulty_chain(plan, 6);
        prop_assert_eq!(ok + failed, 6, "every frame is answered exactly once");
    }
}
