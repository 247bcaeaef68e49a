//! One `daed` backend as the gateway sees it: a pooled connection set, a
//! health state machine, an in-flight gauge and per-backend counters.
//!
//! # Connection discipline
//!
//! A pooled connection is **checked out exclusively** for one
//! request/response exchange. With a single outstanding frame per
//! connection, the next line the backend sends is by construction the
//! answer to the frame just written — the gateway never has to reorder
//! responses. A connection that times out, errors, or produces a frame
//! that fails validation is *discarded*, never returned to the pool: a
//! late response from a timed-out exchange must not be mistaken for the
//! answer to the next request.
//!
//! # Health state machine
//!
//! ```text
//!        consecutive failures >= eject_after            readmit_ms
//!  Up ────────────────────────────────────► Ejected ────────────► HalfOpen
//!   ▲                                          ▲                     │
//!   │              any success                 │     trial fails     │
//!   └───────────────────────────── HalfOpen ───┴─────────────────────┘
//! ```
//!
//! `Draining` is a fourth, probe-driven state: the backend answered
//! `health` with `status: "draining"`, so new requests stop routing to it
//! *before* its socket disappears; a later `ok` probe (a restart) brings
//! it straight back to `Up`.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dae_trace::json::JsonValue;
use dae_trace::{lock_recover, LogHistogram};

/// Idle connections pooled per backend.
const POOL_CAP: usize = 8;

/// Routability of a backend, as decided by probes and request outcomes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum HealthState {
    /// Routable.
    Up,
    /// Ejected after consecutive failures; not routable until the
    /// re-admission cooldown elapses.
    Ejected,
    /// Cooldown elapsed: exactly one trial request/probe may pass.
    HalfOpen,
    /// The backend reported a graceful drain; not routable, not failed.
    Draining,
}

impl HealthState {
    /// Stable lowercase name for stats output.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            HealthState::Up => "up",
            HealthState::Ejected => "ejected",
            HealthState::HalfOpen => "half-open",
            HealthState::Draining => "draining",
        }
    }
}

/// Why a single forwarding attempt failed.
#[derive(Debug)]
pub(crate) enum CallError {
    /// Could not connect (refused, unreachable, connect timeout).
    Connect(String),
    /// The exchange died mid-flight (reset, EOF, write/read error).
    Io(String),
    /// No complete response line within the deadline.
    Timeout,
    /// The backend sent bytes that are not a valid response to this
    /// request (unparsable JSON, wrong shape, or a mismatched `id`).
    Garbled(String),
}

impl CallError {
    /// Human-readable description for the terminal `gate.upstream` error.
    pub(crate) fn describe(&self) -> String {
        match self {
            CallError::Connect(e) => format!("connect failed: {e}"),
            CallError::Io(e) => format!("exchange failed: {e}"),
            CallError::Timeout => "response timed out".to_string(),
            CallError::Garbled(e) => format!("invalid backend frame: {e}"),
        }
    }
}

struct Health {
    state: HealthState,
    /// When the state last changed (drives the re-admission cooldown).
    since: Instant,
    /// A half-open trial currently in flight (only one may pass).
    trial_inflight: bool,
}

/// One backend: address, pool, health, counters.
pub(crate) struct Backend {
    /// The backend's `host:port`.
    pub addr: String,
    /// Index in the gateway's fleet (the trace lane).
    pub index: usize,
    pool: Mutex<Vec<TcpStream>>,
    health: Mutex<Health>,
    /// Requests currently being exchanged with this backend.
    pub inflight: AtomicUsize,
    /// Consecutive failures (probes and requests both count; any success
    /// resets it).
    pub consecutive_failures: AtomicU32,
    /// Requests forwarded (attempts, including retries).
    pub sent: AtomicU64,
    /// Attempts that returned a valid response frame.
    pub ok: AtomicU64,
    /// Attempts that failed (connect, io, timeout, garble).
    pub failed: AtomicU64,
    /// Per-backend forwarding latency (successful attempts).
    latency: Mutex<LogHistogram>,
}

impl Backend {
    /// A backend starting `Up` with an empty pool.
    pub(crate) fn new(addr: String, index: usize) -> Backend {
        Backend {
            addr,
            index,
            pool: Mutex::new(Vec::new()),
            health: Mutex::new(Health {
                state: HealthState::Up,
                since: Instant::now(),
                trial_inflight: false,
            }),
            inflight: AtomicUsize::new(0),
            consecutive_failures: AtomicU32::new(0),
            sent: AtomicU64::new(0),
            ok: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            latency: Mutex::new(LogHistogram::new()),
        }
    }

    /// The health record with the Ejected → HalfOpen clock applied.
    fn health(&self, readmit_after: Duration) -> std::sync::MutexGuard<'_, Health> {
        let mut h = lock_recover(&self.health);
        if h.state == HealthState::Ejected && h.since.elapsed() >= readmit_after {
            h.state = HealthState::HalfOpen;
            h.trial_inflight = false;
        }
        h
    }

    /// Current health state (with the Ejected → HalfOpen clock applied).
    pub(crate) fn state(&self, readmit_after: Duration) -> HealthState {
        self.health(readmit_after).state
    }

    /// Whether [`Backend::admit`] would admit a request now, without
    /// claiming anything.
    pub(crate) fn routable(&self, readmit_after: Duration) -> bool {
        let h = self.health(readmit_after);
        match h.state {
            HealthState::Up => true,
            HealthState::HalfOpen => !h.trial_inflight,
            _ => false,
        }
    }

    /// Claims the right to send one request here. `Up` admits freely
    /// (under the in-flight cap, which the router checks separately);
    /// `HalfOpen` admits exactly one trial at a time; `Ejected` and
    /// `Draining` refuse.
    pub(crate) fn admit(&self, readmit_after: Duration) -> bool {
        let mut h = self.health(readmit_after);
        match h.state {
            HealthState::Up => true,
            HealthState::HalfOpen if !h.trial_inflight => {
                h.trial_inflight = true;
                true
            }
            _ => false,
        }
    }

    /// Records a successful exchange (request or probe): failures reset,
    /// a half-open backend is re-admitted. Returns `true` when this call
    /// flipped the backend back to `Up` (a re-admission).
    pub(crate) fn note_success(&self) -> bool {
        self.consecutive_failures.store(0, Ordering::Relaxed);
        let mut h = lock_recover(&self.health);
        match h.state {
            HealthState::Up => false,
            _ => {
                h.state = HealthState::Up;
                h.since = Instant::now();
                h.trial_inflight = false;
                true
            }
        }
    }

    /// Records a failed exchange. Returns `Some(consecutive)` when this
    /// failure crossed `eject_after` and ejected the backend (the caller
    /// records the `BackendEject` trace event and counter).
    pub(crate) fn note_failure(&self, eject_after: u32) -> Option<u32> {
        let n = self.consecutive_failures.fetch_add(1, Ordering::Relaxed) + 1;
        let mut h = lock_recover(&self.health);
        match h.state {
            HealthState::HalfOpen => {
                // The trial failed: back to Ejected, cooldown restarts.
                h.state = HealthState::Ejected;
                h.since = Instant::now();
                h.trial_inflight = false;
                Some(n)
            }
            HealthState::Up if n >= eject_after => {
                h.state = HealthState::Ejected;
                h.since = Instant::now();
                Some(n)
            }
            _ => None,
        }
    }

    /// Marks the backend as gracefully draining (probe saw
    /// `status: "draining"`). Returns `true` on the transition.
    pub(crate) fn note_draining(&self) -> bool {
        let mut h = lock_recover(&self.health);
        if h.state == HealthState::Draining {
            return false;
        }
        h.state = HealthState::Draining;
        h.since = Instant::now();
        h.trial_inflight = false;
        true
    }

    /// One request/response exchange: write `line`, read one frame,
    /// validate it echoes `id_json`. The connection comes from the pool
    /// when possible and returns to it only after a fully valid exchange.
    ///
    /// `timeout` bounds the whole exchange (connect + write + read).
    pub(crate) fn call(
        &self,
        line: &str,
        id_json: &str,
        timeout: Duration,
    ) -> Result<String, CallError> {
        self.sent.fetch_add(1, Ordering::Relaxed);
        self.inflight.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        let outcome = self.exchange(line, id_json, timeout);
        self.inflight.fetch_sub(1, Ordering::Relaxed);
        match &outcome {
            Ok(_) => {
                self.ok.fetch_add(1, Ordering::Relaxed);
                lock_recover(&self.latency).record(started.elapsed().as_secs_f64());
            }
            Err(_) => {
                self.failed.fetch_add(1, Ordering::Relaxed);
            }
        }
        outcome
    }

    fn exchange(&self, line: &str, id_json: &str, timeout: Duration) -> Result<String, CallError> {
        let stream = match self.checkout() {
            Some(s) => s,
            None => {
                let addr = self
                    .addr
                    .parse::<std::net::SocketAddr>()
                    .map_err(|e| CallError::Connect(format!("bad address: {e}")))?;
                let s = TcpStream::connect_timeout(&addr, timeout)
                    .map_err(|e| CallError::Connect(e.to_string()))?;
                let _ = s.set_nodelay(true);
                s
            }
        };
        stream
            .set_read_timeout(Some(timeout.max(Duration::from_millis(1))))
            .map_err(|e| CallError::Io(e.to_string()))?;
        // One buffer, one write: the frame and its newline leave in the
        // same segment under TCP_NODELAY.
        let mut frame = String::with_capacity(line.len() + 1);
        frame.push_str(line);
        frame.push('\n');
        (&stream).write_all(frame.as_bytes()).map_err(|e| CallError::Io(e.to_string()))?;
        let mut reader = BufReader::new(&stream);
        let mut resp = String::new();
        match reader.read_line(&mut resp) {
            Ok(0) => return Err(CallError::Io("backend closed the connection".into())),
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Err(CallError::Timeout)
            }
            Err(e) => return Err(CallError::Io(e.to_string())),
        }
        if !resp.ends_with('\n') {
            return Err(CallError::Garbled("truncated frame (no trailing newline)".into()));
        }
        let resp = resp.trim_end_matches(['\n', '\r']).to_string();
        validate_response(&resp, id_json)?;
        // Fully valid exchange: the connection is in a known-clean state
        // and may serve the next request.
        self.checkin(stream);
        Ok(resp)
    }

    fn checkout(&self) -> Option<TcpStream> {
        lock_recover(&self.pool).pop()
    }

    fn checkin(&self, stream: TcpStream) {
        let mut pool = lock_recover(&self.pool);
        if pool.len() < POOL_CAP {
            pool.push(stream);
        }
    }

    /// Drops every pooled connection (used after an ejection: the pooled
    /// sockets are likely dead too, and dialling fresh is cheaper than
    /// failing once per stale socket).
    pub(crate) fn drop_pool(&self) {
        lock_recover(&self.pool).clear();
    }

    /// Idle pooled connections (racy, for stats).
    pub(crate) fn pooled(&self) -> usize {
        lock_recover(&self.pool).len()
    }

    /// Per-backend stats object.
    pub(crate) fn to_json(&self, readmit_after: Duration) -> JsonValue {
        JsonValue::obj([
            ("addr", self.addr.as_str().into()),
            ("state", self.state(readmit_after).as_str().into()),
            ("inflight", self.inflight.load(Ordering::Relaxed).into()),
            ("pooled", self.pooled().into()),
            ("consecutive_failures", self.consecutive_failures.load(Ordering::Relaxed).into()),
            ("sent", self.sent.load(Ordering::Relaxed).into()),
            ("ok", self.ok.load(Ordering::Relaxed).into()),
            ("failed", self.failed.load(Ordering::Relaxed).into()),
            ("latency", lock_recover(&self.latency).to_json()),
        ])
    }
}

/// A response frame must be a JSON object with an `ok` bool that echoes
/// the request's `id` — anything else is a protocol violation and the
/// connection that produced it is poisoned.
fn validate_response(resp: &str, id_json: &str) -> Result<(), CallError> {
    // Fast path: a well-behaved `daed` serialises every response as
    // `{"id":<id>,"ok":<bool>,...}` in exactly that key order, so the id
    // echo and the `ok` bool fall out of a prefix compare; the rest only
    // needs a syntax scan (truncation and most garbling break syntax).
    // Responses survive the gateway verbatim, so the scan must guarantee
    // the client's parse cannot fail where ours succeeded — `validate`
    // is that same parser, building nothing. Non-canonical key order
    // falls through to the tree-building parse below.
    if let Some(rest) = resp.strip_prefix("{\"id\":").and_then(|r| r.strip_prefix(id_json)) {
        if (rest.starts_with(",\"ok\":true") || rest.starts_with(",\"ok\":false"))
            && dae_trace::json::validate(resp)
        {
            return Ok(());
        }
    }
    let v = dae_trace::json::parse(resp)
        .map_err(|e| CallError::Garbled(format!("response is not JSON: {e}")))?;
    if v.as_obj().is_none() || v.get("ok").and_then(JsonValue::as_bool).is_none() {
        return Err(CallError::Garbled("response lacks an `ok` field".into()));
    }
    let echoed = v.get("id").cloned().unwrap_or(JsonValue::Null).to_json_string();
    if echoed != id_json {
        return Err(CallError::Garbled(format!("response id {echoed} does not echo {id_json}")));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    const READMIT: Duration = Duration::from_millis(40);

    #[test]
    fn state_machine_ejects_cools_down_and_readmits() {
        let b = Backend::new("127.0.0.1:1".into(), 0);
        assert_eq!(b.state(READMIT), HealthState::Up);
        assert!(b.note_failure(3).is_none());
        assert!(b.note_failure(3).is_none());
        assert_eq!(b.note_failure(3), Some(3), "third consecutive failure ejects");
        assert_eq!(b.state(READMIT), HealthState::Ejected);
        assert!(!b.admit(READMIT), "ejected backends are not routable");
        std::thread::sleep(READMIT + Duration::from_millis(5));
        assert_eq!(b.state(READMIT), HealthState::HalfOpen);
        assert!(b.routable(READMIT) && b.routable(READMIT), "looking claims nothing");
        assert!(b.admit(READMIT), "half-open admits one trial");
        assert!(!b.routable(READMIT), "the trial is taken");
        assert!(!b.admit(READMIT), "only one trial at a time");
        assert!(b.note_success(), "trial success re-admits");
        assert_eq!(b.state(READMIT), HealthState::Up);
        assert!(b.admit(READMIT));
    }

    #[test]
    fn failed_trial_restarts_the_cooldown() {
        let b = Backend::new("127.0.0.1:1".into(), 0);
        for _ in 0..2 {
            b.note_failure(2);
        }
        std::thread::sleep(READMIT + Duration::from_millis(5));
        assert!(b.admit(READMIT));
        assert!(b.note_failure(2).is_some(), "half-open trial failure re-ejects");
        assert_eq!(b.state(READMIT), HealthState::Ejected);
        assert!(!b.admit(READMIT));
    }

    #[test]
    fn draining_is_not_routable_but_recovers_on_success() {
        let b = Backend::new("127.0.0.1:1".into(), 0);
        assert!(b.note_draining());
        assert!(!b.note_draining(), "transition reported once");
        assert!(!b.admit(READMIT));
        assert!(b.note_success(), "a healthy probe after restart re-admits");
        assert_eq!(b.state(READMIT), HealthState::Up);
    }

    #[test]
    fn call_roundtrips_and_pools_the_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            for _ in 0..2 {
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                writer.write_all(b"{\"id\":7,\"ok\":true,\"result\":{}}\n").unwrap();
            }
        });
        let b = Backend::new(addr.to_string(), 0);
        let resp =
            b.call(r#"{"id":7,"op":"health"}"#, "7", Duration::from_secs(2)).expect("first call");
        assert!(resp.contains("\"ok\":true"));
        assert_eq!(b.pooled(), 1, "clean exchange returns the connection");
        b.call(r#"{"id":7,"op":"health"}"#, "7", Duration::from_secs(2)).expect("pooled call");
        assert_eq!(b.ok.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn mismatched_id_is_garbled_and_poisons_the_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            writer.write_all(b"{\"id\":999,\"ok\":true}\n").unwrap();
        });
        let b = Backend::new(addr.to_string(), 0);
        let err = b.call(r#"{"id":7,"op":"health"}"#, "7", Duration::from_secs(2)).unwrap_err();
        assert!(matches!(err, CallError::Garbled(_)), "{err:?}");
        assert_eq!(b.pooled(), 0, "garbled exchange must not pool the connection");
    }

    #[test]
    fn connect_refused_is_a_connect_error() {
        // Bind-then-drop guarantees an unused port.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let b = Backend::new(addr, 0);
        let err = b.call(r#"{"id":1,"op":"health"}"#, "1", Duration::from_millis(500)).unwrap_err();
        assert!(matches!(err, CallError::Connect(_)), "{err:?}");
        assert_eq!(b.failed.load(Ordering::Relaxed), 1);
    }
}
