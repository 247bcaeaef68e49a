//! One front end, two daemons.
//!
//! `daed` and `daeg` share `dae_serve::front` — listener, framing,
//! admission, worker pool, drain — and differ only in what they plug into
//! it. So the front-end contract is one test body, run against a `Server`
//! and against a `Gateway`; the only per-daemon inputs are the codes and
//! message texts each supplies for the replies the front end sends on its
//! behalf.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::thread::JoinHandle;
use std::time::Duration;

use dae_repro::gate::{GateConfig, Gateway};
use dae_repro::serve::{Server, ServerConfig, MAX_FRAME_BYTES};
use dae_repro::trace::json::{parse, JsonValue};

const STREAM: &str = "\
global g0 a : 4096 x f64

task fn stream(arg0: i64) {
bb0:
  jump bb1(0)
bb1(bb1p0: i64):
  v0: bool = icmp lt bb1p0, arg0
  br v0, bb2, bb3
bb2:
  v1: i64 = imul bb1p0, 8
  v2: ptr = ptradd @g0, v1
  v3: f64 = load v2
  v4: f64 = fmul v3, 2.0
  store v2, v4
  v5: i64 = iadd bb1p0, 1
  jump bb1(v5)
bb3:
  ret
}
";

/// What differs between the daemons at the front end: `(code, message)`
/// of the queue-full and the draining refusal.
struct Dialect {
    overloaded: (&'static str, &'static str),
    draining: (&'static str, &'static str),
}

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).expect("daemon is listening");
        stream.set_nodelay(true).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        Client { writer: stream.try_clone().unwrap(), reader: BufReader::new(stream) }
    }

    fn send(&mut self, bytes: &[u8]) {
        self.writer.write_all(bytes).expect("daemon reads what clients write");
        self.writer.flush().unwrap();
    }

    /// The next response line, parsed.
    fn recv(&mut self) -> JsonValue {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("a response arrives");
        assert!(line.ends_with('\n'), "responses are newline-framed: {line:?}");
        parse(&line).unwrap_or_else(|e| panic!("response is JSON ({e}): {line:?}"))
    }
}

fn error_of(v: &JsonValue) -> (String, String) {
    assert_eq!(v.get("ok").and_then(JsonValue::as_bool), Some(false), "{v:?}");
    let field = |k: &str| {
        v.get("error").and_then(|e| e.get(k)).and_then(JsonValue::as_str).unwrap().to_string()
    };
    (field("code"), field("message"))
}

/// A `run` frame that no earlier frame memoised: the hint is the loop
/// bound, so each `n` is a distinct simulation.
fn run_frame(id: &str, n: u64) -> String {
    let mut frame = JsonValue::obj([
        ("id", id.into()),
        ("op", "run".into()),
        ("ir", STREAM.into()),
        ("hints", JsonValue::Arr(vec![n.into()])),
    ])
    .to_json_string();
    frame.push('\n');
    frame
}

/// The front-end contract. The daemon at `addr` has one worker and a
/// depth-1 queue, and is draining when this returns.
fn exercise(addr: &str, dialect: &Dialect) {
    let mut c = Client::connect(addr);

    // A frame split across reads is one frame.
    c.send(br#"{"id":"split","op":"he"#);
    std::thread::sleep(Duration::from_millis(30));
    c.send(b"alth\"}\n");
    let v = c.recv();
    assert_eq!(v.get("id").and_then(JsonValue::as_str), Some("split"));
    assert_eq!(
        v.get("result").and_then(|r| r.get("status")).and_then(JsonValue::as_str),
        Some("ok")
    );

    // Bad frames are answered with a dotted code, the id echoed when one
    // could be recovered, and the connection stays in frame.
    c.send(b"{\"id\":5,\"op\":\"nope\"}\n{broken\n\n{\"id\":6,\"op\":\"health\"}\n");
    let v = c.recv();
    assert_eq!(v.get("id").and_then(JsonValue::as_f64), Some(5.0));
    assert_eq!(error_of(&v).0, "serve.bad-request");
    let v = c.recv();
    assert_eq!(v.get("id"), Some(&JsonValue::Null));
    assert_eq!(error_of(&v).0, "json.parse");
    assert_eq!(c.recv().get("id").and_then(JsonValue::as_f64), Some(6.0));

    // A frame over the cap is answered once — the code is the shared
    // front end's, whichever daemon — and the connection closed, because
    // framing is lost. One byte over, so the reader has consumed every
    // byte sent and the close is a clean FIN.
    let mut big = Client::connect(addr);
    big.send(&vec![b'x'; MAX_FRAME_BYTES + 1]);
    let v = big.recv();
    assert_eq!(v.get("id"), Some(&JsonValue::Null));
    assert_eq!(error_of(&v).0, "serve.frame-too-large");
    let mut rest = Vec::new();
    big.reader.read_to_end(&mut rest).expect("clean close");
    assert!(rest.is_empty(), "nothing follows the refusal");

    // Queue full: a pipelined burst of distinct runs outpaces one worker
    // behind a depth-1 queue. Every frame is answered; the shed ones carry
    // the daemon's own code and wording.
    let burst = 24u64;
    let frames: String = (0..burst).map(|i| run_frame(&format!("b{i}"), 400 + i)).collect();
    c.send(frames.as_bytes());
    let (mut served, mut shed) = (0, 0);
    for _ in 0..burst {
        let v = c.recv();
        if v.get("ok").and_then(JsonValue::as_bool) == Some(true) {
            served += 1;
        } else {
            let (code, message) = error_of(&v);
            assert_eq!((code.as_str(), message.as_str()), dialect.overloaded);
            shed += 1;
        }
    }
    assert!(served > 0 && shed > 0, "served {served}, shed {shed}");

    // Draining: frames on one connection are handled in order, so work
    // behind a `shutdown` is refused — again in the daemon's own words.
    c.send(format!("{{\"id\":\"bye\",\"op\":\"shutdown\"}}\n{}", run_frame("late", 7)).as_bytes());
    let v = c.recv();
    assert_eq!(
        v.get("result").and_then(|r| r.get("draining")).and_then(JsonValue::as_bool),
        Some(true)
    );
    let v = c.recv();
    assert_eq!(v.get("id").and_then(JsonValue::as_str), Some("late"));
    let (code, message) = error_of(&v);
    assert_eq!((code.as_str(), message.as_str()), dialect.draining);
}

fn spawn_server(queue_depth: usize) -> (String, JoinHandle<()>) {
    let server =
        Server::bind(&ServerConfig { workers: 1, queue_depth, ..ServerConfig::default() }).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    (addr, std::thread::spawn(move || server.run().expect("serve")))
}

#[test]
fn the_front_end_contract_holds_for_daed() {
    let (addr, handle) = spawn_server(1);
    exercise(
        &addr,
        &Dialect {
            overloaded: ("serve.overloaded", "admission queue full (1 deep); retry later"),
            draining: ("serve.draining", "server is draining"),
        },
    );
    handle.join().expect("daed drains and returns");
}

#[test]
fn the_front_end_contract_holds_for_daeg() {
    // The backend's queue is deep: only the gateway's own admission sheds.
    let (backend, backend_handle) = spawn_server(64);
    let gateway = Gateway::bind(&GateConfig {
        backends: vec![backend.clone()],
        routers: 1,
        queue_depth: 1,
        ..GateConfig::default()
    })
    .unwrap();
    let addr = gateway.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || gateway.run().expect("route"));
    exercise(
        &addr,
        &Dialect {
            overloaded: ("gate.overloaded", "gateway queue full (1 deep); retry later"),
            draining: ("gate.draining", "gateway is draining"),
        },
    );
    handle.join().expect("daeg drains and returns");
    let mut c = Client::connect(&backend);
    c.send(b"{\"id\":0,\"op\":\"shutdown\"}\n");
    c.recv();
    backend_handle.join().expect("the backend drains and returns");
}
