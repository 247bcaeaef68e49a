//! `daed`: the compile-and-simulate [`Service`] behind the shared
//! [front end](crate::front).
//!
//! Work ops run through the one shared [`Engine`] (and thus the one shared
//! incremental cache); a response-cache hit is answered on the reader
//! thread, so the queue hop is only paid by requests that need work.

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use dae_trace::json::JsonValue;

use crate::engine::{Engine, EngineConfig};
use crate::front::{AdmissionCounters, Conn, Front, Gauges, Job, Service, Wording};
use crate::metrics::{Metrics, WorkOp};
use crate::proto::{codes, err_response, ok_response_raw, Op, Request};

/// Schema tag of the `health` result object. `/2` added the routing
/// inputs a gateway needs from one cheap probe: queue depth/capacity,
/// worker count and response-cache counters. `/3` added the `pgo` section
/// (profile records held, recompile-worker counters); `/4` dropped the
/// `engine` key; `/5` dropped the recompile worker's counters from `pgo`;
/// `/6` dropped `pgo`.
pub(crate) const HEALTH_SCHEMA: &str = "dae-serve-health/6";

/// Daemon construction knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Worker threads executing work requests.
    pub workers: usize,
    /// Admission-queue capacity; beyond it requests are shed.
    pub queue_depth: usize,
    /// Engine (driver cache, global-data cap) configuration.
    pub engine: EngineConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_depth: 64,
            engine: EngineConfig::default(),
        }
    }
}

/// The daemon: the front end over an engine and its metrics.
pub struct Server {
    front: Front<Daed>,
}

/// What `daed` plugs into the front end.
struct Daed {
    engine: Engine,
    metrics: Metrics,
}

impl Server {
    /// Binds the listener; the accept loop starts with [`Server::run`].
    pub fn bind(config: &ServerConfig) -> std::io::Result<Server> {
        let daed = Daed { engine: Engine::new(&config.engine), metrics: Metrics::new() };
        Ok(Server { front: Front::bind(&config.addr, config.workers, config.queue_depth, daed)? })
    }

    /// The bound address (the actual port when `addr` asked for port 0).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.front.local_addr()
    }

    /// Serves until a drain is requested, then completes all admitted work
    /// and returns: every admitted request has been answered by then.
    pub fn run(&self) -> std::io::Result<()> {
        self.front.run()
    }
}

fn work_op(op: Op) -> WorkOp {
    match op {
        Op::Compile => WorkOp::Compile,
        Op::Report => WorkOp::Report,
        _ => WorkOp::Run,
    }
}

impl Service for Daed {
    const WORDING: Wording = Wording {
        overloaded: codes::OVERLOADED,
        draining: codes::DRAINING,
        deadline: codes::DEADLINE,
        daemon: "server",
        full_queue: "admission queue",
        deadline_queue: "queue",
    };
    const KEEPS_FRAME: bool = false;

    fn counters(&self) -> &AdmissionCounters {
        &self.metrics.admission
    }

    fn control(&self, op: Op, g: &Gauges) -> JsonValue {
        let engine = &self.engine;
        match op {
            Op::Stats => self.metrics.to_json(g.queue_depth, g.workers, engine.cache_json()),
            _ => JsonValue::obj([
                ("schema", HEALTH_SCHEMA.into()),
                ("status", if g.draining { "draining" } else { "ok" }.into()),
                ("workers", g.workers.into()),
                ("queue_depth", g.queue_depth.into()),
                ("queue_capacity", g.queue_capacity.into()),
                ("cache", engine.resp_cache_json()),
            ]),
        }
    }

    fn fast_path(&self, req: &Request, conn: &Conn) -> bool {
        let Some(result) = self.engine.cached_response(req) else { return false };
        let t0 = Instant::now();
        self.metrics.admission.accepted.fetch_add(1, Ordering::Relaxed);
        self.metrics.completed.fetch_add(1, Ordering::Relaxed);
        conn.send(ok_response_raw(&req.id, &result));
        self.metrics.record(work_op(req.op), Duration::ZERO, t0.elapsed());
        true
    }

    fn work(&self, job: &Job, waited: Duration) {
        let line = match self.engine.handle_raw(&job.req) {
            Ok(result) => {
                self.metrics.completed.fetch_add(1, Ordering::Relaxed);
                ok_response_raw(&job.req.id, &result)
            }
            Err(e) => {
                let counter = if e.code == codes::INTERNAL {
                    &self.metrics.internal_errors
                } else {
                    &self.metrics.failed
                };
                counter.fetch_add(1, Ordering::Relaxed);
                err_response(&job.req.id, &e)
            }
        };
        job.conn.send(line);
        self.metrics.record(work_op(job.req.op), waited, job.admitted.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, Write};
    use std::net::TcpStream;

    const STREAM: &str = "global g0 a : 1024 x f64\n\ntask fn s(arg0: i64) {\nbb0:\n  jump bb1(0)\nbb1(bb1p0: i64):\n  v0: bool = icmp lt bb1p0, arg0\n  br v0, bb2, bb3\nbb2:\n  v1: i64 = imul bb1p0, 8\n  v2: ptr = ptradd @g0, v1\n  v3: f64 = load v2\n  v4: f64 = fmul v3, 2.0\n  store v2, v4\n  v5: i64 = iadd bb1p0, 1\n  jump bb1(v5)\nbb3:\n  ret\n}\n";

    fn start(
        workers: usize,
        queue_depth: usize,
    ) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let server = Server::bind(&ServerConfig { workers, queue_depth, ..Default::default() })
            .expect("bind");
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.run().expect("serve"));
        (addr, handle)
    }

    fn roundtrip(stream: &mut TcpStream, frame: &JsonValue) -> JsonValue {
        let mut line = frame.to_json_string();
        line.push('\n');
        stream.write_all(line.as_bytes()).unwrap();
        let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        dae_trace::json::parse(&resp).expect("valid response JSON")
    }

    fn work_frame(id: u64, op: &str) -> JsonValue {
        JsonValue::obj([
            ("id", id.into()),
            ("op", op.into()),
            ("ir", STREAM.into()),
            ("hints", JsonValue::Arr(vec![32u64.into()])),
        ])
    }

    #[test]
    fn serves_work_control_and_drain_over_tcp() {
        let (addr, handle) = start(2, 16);
        let mut c = TcpStream::connect(addr).unwrap();
        // Health, then a compile, then stats reflecting it.
        let h = roundtrip(&mut c, &JsonValue::obj([("id", 1u64.into()), ("op", "health".into())]));
        assert_eq!(h.get("result").unwrap().get("status").unwrap().as_str(), Some("ok"));
        let r = roundtrip(&mut c, &work_frame(2, "compile"));
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true));
        assert!(r
            .get("result")
            .unwrap()
            .get("module")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("s__access"));
        // A second client compiles the same program: the shared cache hits.
        let mut c2 = TcpStream::connect(addr).unwrap();
        let r2 = roundtrip(&mut c2, &work_frame(3, "compile"));
        assert_eq!(
            r2.get("result").unwrap().to_json_string(),
            r.get("result").unwrap().to_json_string(),
            "identical program, identical bytes"
        );
        let s = roundtrip(&mut c, &JsonValue::obj([("id", 4u64.into()), ("op", "stats".into())]));
        let cache = s.get("result").unwrap().get("cache").unwrap();
        assert_eq!(cache.get("resp_hits").unwrap().as_f64(), Some(1.0));
        // Malformed frames answer without killing the connection.
        c.write_all(b"{broken\n").unwrap();
        let mut reader = std::io::BufReader::new(c.try_clone().unwrap());
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        let v = dae_trace::json::parse(&resp).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("error").unwrap().get("code").unwrap().as_str(), Some("json.parse"));
        // Shutdown drains; the server thread exits; new connects fail.
        let d =
            roundtrip(&mut c, &JsonValue::obj([("id", 9u64.into()), ("op", "shutdown".into())]));
        assert_eq!(d.get("result").unwrap().get("draining").unwrap().as_bool(), Some(true));
        handle.join().unwrap();
    }

    #[test]
    fn expired_deadline_is_refused_not_executed() {
        let (addr, handle) = start(1, 8);
        let mut c = TcpStream::connect(addr).unwrap();
        let mut frame = work_frame(1, "run");
        if let JsonValue::Obj(pairs) = &mut frame {
            pairs.push(("deadline_ms".to_string(), JsonValue::Num(0.0)));
        }
        // deadline_ms 0 means none; use an already-tiny deadline by
        // saturating the single worker first with a slow request.
        let slow = work_frame(2, "run");
        let mut line = slow.to_json_string();
        line.push('\n');
        c.write_all(line.as_bytes()).unwrap();
        let mut tight = work_frame(3, "run");
        if let JsonValue::Obj(pairs) = &mut tight {
            pairs.push(("deadline_ms".to_string(), JsonValue::Num(1.0)));
        }
        let mut line = tight.to_json_string();
        line.push('\n');
        c.write_all(line.as_bytes()).unwrap();
        // Read both responses; find id 3.
        let mut reader = std::io::BufReader::new(c.try_clone().unwrap());
        let mut saw_deadline_or_ok = 0;
        for _ in 0..2 {
            let mut resp = String::new();
            reader.read_line(&mut resp).unwrap();
            let v = dae_trace::json::parse(&resp).unwrap();
            if v.get("id").unwrap().as_f64() == Some(3.0) {
                // Either the worker got to it in time (ok) or the deadline
                // fired; both are valid — what is *not* valid is silence
                // or a crash.
                let ok = v.get("ok").unwrap().as_bool().unwrap();
                if !ok {
                    assert_eq!(
                        v.get("error").unwrap().get("code").unwrap().as_str(),
                        Some(codes::DEADLINE)
                    );
                }
                saw_deadline_or_ok += 1;
            }
        }
        assert_eq!(saw_deadline_or_ok, 1);
        let _ =
            roundtrip(&mut c, &JsonValue::obj([("id", 9u64.into()), ("op", "shutdown".into())]));
        handle.join().unwrap();
    }
}
