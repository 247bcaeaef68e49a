//! The NDJSON/TCP front end shared by `daed` and `daeg`:
//! accept → frame → admit → work → respond.
//!
//! ```text
//!            readers (1/conn)        bounded queue        workers (N)
//!  client ──► parse frame ──► admit ─────────────────► pop → Service::work
//!     ▲         │    │          │ full → overloaded        │
//!     │         │    │          │ draining → refused       │
//!     │         │    │          │ alone, idle, free slot:  │
//!     │         │    │          │ Service::work (inline)   │
//!     │         │    │          │       │                  ▼
//!     └─────────┴────┴──────────┴───────┴──────── response line (per conn)
//! ```
//!
//! * Each connection gets a **reader thread** that frames newline-delimited
//!   requests (capped at [`MAX_FRAME_BYTES`]), answers control ops inline
//!   and pushes work ops onto the shared `Queue`. A full queue sheds; a
//!   draining queue refuses; neither ever buffers.
//! * A fixed pool of **worker threads** pops jobs, refuses the ones whose
//!   deadline expired while queued, and hands the rest to
//!   [`Service::work`]. Responses go back through a per-connection writer
//!   mutex, so lines never interleave; `id` is the client's correlation
//!   key.
//! * **Inline work** — for a service that opts in
//!   ([`Service::INLINE_WORK`]), a reader runs a work frame itself when
//!   nothing is buffered behind it on its connection, nothing is queued
//!   and one of the `workers` slots is free. A closed-loop client then
//!   skips the handoff to a worker. Readers and workers together never run
//!   more than `workers` jobs, so overload still queues and sheds.
//! * **Graceful drain** — a `shutdown` request or a SIGTERM/SIGINT (see
//!   [`install_signal_drain`]) stops the accept loop and closes the queue:
//!   everything already admitted completes and is answered, everything new
//!   is refused, and [`Front::run`] returns once the workers have gone
//!   idle — which they do only after the last inline job has answered.
//!
//! A daemon is a [`Service`]: the control-op bodies, the work function, an
//! optional reader-thread fast path, and its own error codes and wording.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dae_trace::json::JsonValue;
use dae_trace::lock_recover;

use crate::proto::{
    codes, err_response, ok_response, parse_request, ErrorBody, Op, Request, MAX_FRAME_BYTES,
};
use crate::queue::{Push, Queue};

/// The write half of a connection: one mutex so response lines never
/// interleave, shared by the reader and every worker holding a job for it.
pub struct Conn {
    stream: Mutex<TcpStream>,
}

impl Conn {
    /// Writes one response line, newline included, as a single write.
    /// Errors are swallowed: a vanished client must not take a worker
    /// down with it.
    pub fn send(&self, mut line: String) {
        line.push('\n');
        let mut s = lock_recover(&self.stream);
        let _ = s.write_all(line.as_bytes());
        let _ = s.flush();
    }
}

/// One admitted work request, en route to a worker.
pub struct Job {
    /// The parsed request.
    pub req: Request,
    /// The client's frame exactly as received, when the service asked for
    /// it ([`Service::KEEPS_FRAME`]); empty otherwise.
    pub raw: String,
    /// Where the answer goes.
    pub conn: Arc<Conn>,
    /// When the job entered the queue.
    pub admitted: Instant,
    /// When the client's `deadline_ms` budget runs out, if it set one.
    pub deadline: Option<Instant>,
}

impl Job {
    /// True once the client's deadline budget is spent.
    pub fn expired(&self) -> bool {
        matches!(self.deadline, Some(d) if Instant::now() >= d)
    }
}

/// The admission counters every daemon's `stats` reports; the front end
/// bumps them, the daemon's metrics embed and print them.
#[derive(Default)]
pub struct AdmissionCounters {
    /// Work requests admitted (queued, run inline, or answered on the fast
    /// path).
    pub accepted: AtomicU64,
    /// Of `accepted`, the work requests run on their reader thread
    /// ([`Service::INLINE_WORK`]).
    pub inline: AtomicU64,
    /// Requests shed because the queue was full.
    pub shed: AtomicU64,
    /// Requests refused because the daemon was draining.
    pub refused_draining: AtomicU64,
    /// Requests whose deadline expired while queued.
    pub deadline_expired: AtomicU64,
    /// Frames that never became a valid request.
    pub bad_requests: AtomicU64,
}

/// A daemon's own error codes and message wording for the replies the
/// front end sends on its behalf.
pub struct Wording {
    /// Code of the queue-full reply.
    pub overloaded: &'static str,
    /// Code of the draining reply.
    pub draining: &'static str,
    /// Code of the expired-in-queue reply.
    pub deadline: &'static str,
    /// Subject of "`<daemon>` is draining".
    pub daemon: &'static str,
    /// Subject of "`<queue>` full (N deep); retry later".
    pub full_queue: &'static str,
    /// Object of "deadline of N ms expired in the `<queue>`".
    pub deadline_queue: &'static str,
}

/// Front-end state a control op may report.
pub struct Gauges {
    /// Jobs waiting in the admission queue.
    pub queue_depth: usize,
    /// The queue's capacity.
    pub queue_capacity: usize,
    /// Worker threads.
    pub workers: usize,
    /// True once a drain began — including a SIGTERM the accept loop has
    /// not noticed yet, so a gateway probing `health` stops routing here
    /// before the socket disappears.
    pub draining: bool,
}

/// What a daemon plugs into the shared front end.
pub trait Service: Send + Sync + 'static {
    /// The daemon's codes and wording.
    const WORDING: Wording;
    /// Whether [`Job::raw`] carries the client's frame (a forwarding
    /// daemon passes it on verbatim; an executing one has no use for a
    /// second copy of the IR).
    const KEEPS_FRAME: bool;
    /// Whether a reader may run [`Service::work`] itself when its frame is
    /// alone on the connection, nothing is queued and a worker slot is
    /// free. Worth it when a job is short next to the handoff to a worker.
    const INLINE_WORK: bool = false;

    /// The counters the front end bumps.
    fn counters(&self) -> &AdmissionCounters;

    /// The `result` body of a `stats` or `health` request.
    fn control(&self, op: Op, gauges: &Gauges) -> JsonValue;

    /// Reader-thread fast path: answer a work request on `conn` without
    /// the queue hop and return true, or return false to have it queued.
    /// Never consulted while draining.
    fn fast_path(&self, _req: &Request, _conn: &Conn) -> bool {
        false
    }

    /// Executes one admitted, unexpired job and answers it on `job.conn`.
    /// `waited` is the time it spent queued (zero for an inline job).
    fn work(&self, job: &Job, waited: Duration);
}

/// State shared by the accept loop, the readers and the workers.
struct Shared<S> {
    service: S,
    queue: Queue<Job>,
    drain: AtomicBool,
    workers: usize,
}

/// A bound listener plus the shared front-end state of one daemon.
pub struct Front<S> {
    listener: TcpListener,
    shared: Arc<Shared<S>>,
}

impl<S: Service> Front<S> {
    /// Binds `addr` (port 0 for an ephemeral port); serving starts with
    /// [`Front::run`].
    pub fn bind(
        addr: &str,
        workers: usize,
        queue_depth: usize,
        service: S,
    ) -> std::io::Result<Front<S>> {
        let shared = Shared {
            service,
            queue: Queue::new(queue_depth, workers),
            drain: AtomicBool::new(false),
            workers: workers.max(1),
        };
        Ok(Front { listener: TcpListener::bind(addr)?, shared: Arc::new(shared) })
    }

    /// The bound address (the actual port when `addr` asked for port 0).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// The daemon behind the front end.
    pub fn service(&self) -> &S {
        &self.shared.service
    }

    /// True once a drain was requested, by frame or signal.
    pub fn draining(&self) -> bool {
        self.shared.drain.load(Ordering::SeqCst) || signal_drain_requested()
    }

    /// Serves until a drain is requested, then completes all admitted work
    /// and returns. Reader threads are detached — they die with their
    /// connections — but every worker is joined, and a worker outlives
    /// every inline job, so when `run` returns every admitted request has
    /// been answered.
    pub fn run(&self) -> std::io::Result<()> {
        self.listener.set_nonblocking(true)?;
        std::thread::scope(|scope| {
            for _ in 0..self.shared.workers {
                scope.spawn(|| self.shared.worker_loop());
            }
            while !self.draining() {
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        // Frames are small and latency-sensitive: without
                        // this, Nagle + delayed ACK adds ~40 ms per
                        // request/response round trip.
                        let _ = stream.set_nodelay(true);
                        let shared = Arc::clone(&self.shared);
                        std::thread::spawn(move || shared.reader_loop(stream));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            }
            self.shared.drain.store(true, Ordering::SeqCst);
            self.shared.queue.close();
            // Scope exit joins the workers: the queue drains completely.
        });
        Ok(())
    }
}

impl<S: Service> Shared<S> {
    fn worker_loop(&self) {
        while let Some((job, _slot)) = self.queue.pop() {
            let waited = job.admitted.elapsed();
            if job.expired() {
                self.service.counters().deadline_expired.fetch_add(1, Ordering::Relaxed);
                let message = format!(
                    "deadline of {} ms expired in the {}",
                    job.req.deadline_ms,
                    S::WORDING.deadline_queue
                );
                let e = ErrorBody::new(S::WORDING.deadline, message);
                job.conn.send(err_response(&job.req.id, &e));
                continue;
            }
            self.service.work(&job, waited);
        }
    }

    /// Frames newline-delimited requests off one connection until EOF.
    fn reader_loop(&self, mut stream: TcpStream) {
        // The timeout keeps the reader responsive to client death even when
        // the client never sends another byte.
        let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
        let conn = match stream.try_clone() {
            Ok(w) => Arc::new(Conn { stream: Mutex::new(w) }),
            Err(_) => return,
        };
        let mut buf: Vec<u8> = Vec::new();
        // `buf[..scanned]` is known to hold no newline: a frame that
        // arrives over many reads is searched once, not once per read.
        let mut scanned = 0;
        let mut chunk = [0u8; 16 * 1024];
        let newline = |buf: &[u8], from: usize| {
            buf[from..].iter().position(|&b| b == b'\n').map(|off| from + off)
        };
        loop {
            // Handle the complete frames in place, then drop them at once.
            // The search runs one frame ahead, so a frame knows whether
            // another waits behind it; every byte is still searched once.
            let mut start = 0;
            let mut next = newline(&buf, scanned);
            while let Some(nl) = next {
                next = newline(&buf, nl + 1);
                let line = String::from_utf8_lossy(&buf[start..nl]);
                let line = line.trim();
                if !line.is_empty() {
                    self.handle_frame(line, &conn, next.is_none());
                }
                start = nl + 1;
            }
            buf.drain(..start);
            scanned = buf.len();
            // A line longer than the frame cap can never complete: answer
            // once and drop the connection, because framing is lost.
            if buf.len() > MAX_FRAME_BYTES {
                self.service.counters().bad_requests.fetch_add(1, Ordering::Relaxed);
                let e = ErrorBody::new(
                    codes::TOO_LARGE,
                    format!("frame exceeds {MAX_FRAME_BYTES} bytes before its newline"),
                );
                conn.send(err_response(&JsonValue::Null, &e));
                return;
            }
            match stream.read(&mut chunk) {
                Ok(0) => return, // EOF: client closed its write half.
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut => {}
                Err(_) => return,
            }
        }
    }

    /// Routes one frame: control ops inline, work ops into the queue — or
    /// inline, when the service opts in and the frame is `alone` (nothing
    /// complete is buffered behind it).
    fn handle_frame(&self, line: &str, conn: &Arc<Conn>, alone: bool) {
        let counters = self.service.counters();
        let req = match parse_request(line) {
            Ok(req) => req,
            Err((id, e)) => {
                counters.bad_requests.fetch_add(1, Ordering::Relaxed);
                conn.send(err_response(&id, &e));
                return;
            }
        };
        let draining = self.drain.load(Ordering::SeqCst) || self.queue.is_closed();
        match req.op {
            Op::Stats | Op::Health => {
                let gauges = Gauges {
                    queue_depth: self.queue.len(),
                    queue_capacity: self.queue.capacity(),
                    workers: self.workers,
                    draining: draining || signal_drain_requested(),
                };
                conn.send(ok_response(&req.id, self.service.control(req.op, &gauges)));
            }
            Op::Shutdown => {
                // Answer first: the drain may outlive the client's patience.
                conn.send(ok_response(&req.id, JsonValue::obj([("draining", true.into())])));
                self.drain.store(true, Ordering::SeqCst);
                self.queue.close();
            }
            Op::Compile | Op::Report | Op::Run => {
                // Drain wins over the fast path: once the queue is closed,
                // new work is refused uniformly, warm or not.
                if !draining && self.service.fast_path(&req, conn) {
                    return;
                }
                let deadline = (req.deadline_ms > 0)
                    .then(|| Instant::now() + Duration::from_millis(req.deadline_ms));
                let job = Job {
                    req,
                    raw: if S::KEEPS_FRAME { line.to_string() } else { String::new() },
                    conn: Arc::clone(conn),
                    admitted: Instant::now(),
                    deadline,
                };
                if S::INLINE_WORK && alone {
                    if let Some(_slot) = self.queue.claim() {
                        counters.accepted.fetch_add(1, Ordering::Relaxed);
                        counters.inline.fetch_add(1, Ordering::Relaxed);
                        self.service.work(&job, Duration::ZERO);
                        return;
                    }
                }
                let (job, code, message) = match self.queue.push(job) {
                    Push::Queued => {
                        counters.accepted.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                    Push::Full(job) => {
                        counters.shed.fetch_add(1, Ordering::Relaxed);
                        let message = format!(
                            "{} full ({} deep); retry later",
                            S::WORDING.full_queue,
                            self.queue.capacity()
                        );
                        (job, S::WORDING.overloaded, message)
                    }
                    Push::Closed(job) => {
                        counters.refused_draining.fetch_add(1, Ordering::Relaxed);
                        (job, S::WORDING.draining, format!("{} is draining", S::WORDING.daemon))
                    }
                };
                job.conn.send(err_response(&job.req.id, &ErrorBody::new(code, message)));
            }
        }
    }
}

static SIGNAL_DRAIN: AtomicBool = AtomicBool::new(false);

/// True once a SIGTERM/SIGINT arrived after [`install_signal_drain`].
fn signal_drain_requested() -> bool {
    SIGNAL_DRAIN.load(Ordering::SeqCst)
}

/// Routes SIGTERM and SIGINT into the drain path: the accept loop notices
/// within one poll interval and begins the same graceful drain a
/// `shutdown` request would. `std` already links the platform C runtime,
/// so plain `signal(2)` is declared directly rather than through a crate.
#[cfg(unix)]
pub fn install_signal_drain() {
    extern "C" fn on_signal(_sig: i32) {
        SIGNAL_DRAIN.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: `signal` is the C runtime's own, called with valid signal
    // numbers; the handler only stores to an atomic, which is
    // async-signal-safe.
    unsafe {
        signal(SIGINT, on_signal as extern "C" fn(i32) as usize);
        signal(SIGTERM, on_signal as extern "C" fn(i32) as usize);
    }
}

/// No-op off Unix; a `shutdown` request still drains gracefully.
#[cfg(not(unix))]
pub fn install_signal_drain() {}
