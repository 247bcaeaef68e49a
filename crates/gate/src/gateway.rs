//! `daeg`: the routing [`Service`] behind the shared `dae-serve` front
//! end ([`dae_serve::front`]) — the same readers, admission queue and
//! worker pool as `daed`, with routers for workers:
//! pop → pick backend (ring walk) → forward (retry) → respond.
//!
//! The gateway opts into inline work: a forward is one backend round trip,
//! short next to the handoff to a router, so a reader with its frame alone
//! on the connection, nothing queued and a router slot free forwards the
//! frame itself. `routers` bounds the forwards in flight either way.
//!
//! The gateway speaks the exact `daed` wire protocol on both sides. A work
//! frame is re-serialised once (canonically, with its deadline budget
//! decremented by the time already spent inside the gateway) and the
//! backend's response line passes through **verbatim** — the gateway never
//! rewrites a successful response, which is what makes the fleet
//! byte-identical to a single fresh engine.
//!
//! Routing is cache-affine: the ring key is [`dae_serve::request_key`],
//! the same key the backends memoise responses under, so a repeated
//! request lands on the backend that already holds its answer and the
//! fleet's cache capacity adds up instead of overlapping.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dae_serve::front::{AdmissionCounters, Front, Gauges, Job, Service, Wording};
use dae_serve::{err_response, ErrorBody, Op, Request};
use dae_trace::json::JsonValue;
use dae_trace::{lock_recover, Recorder, TraceEvent, TraceSink};

use crate::backend::{Backend, CallError, HealthState};
use crate::metrics::{codes, GateMetrics, GATE_HEALTH_SCHEMA};
use crate::ring::Ring;

/// Gateway construction knobs.
#[derive(Clone, Debug)]
pub struct GateConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Backend `host:port` addresses (the fleet).
    pub backends: Vec<String>,
    /// At most this many forwards in flight: router threads forwarding
    /// queued requests plus readers forwarding their own frame.
    pub routers: usize,
    /// Admission-queue capacity; beyond it requests are shed.
    pub queue_depth: usize,
    /// Virtual nodes per backend on the routing ring.
    pub vnodes: usize,
    /// Per-backend in-flight cap: a home backend at the cap spills the
    /// request to the next ring candidate (bounded load).
    pub inflight_cap: usize,
    /// Consecutive failures before a backend is ejected.
    pub eject_after: u32,
    /// Cooldown before an ejected backend goes half-open.
    pub readmit_ms: u64,
    /// Health-probe period (0 disables probing).
    pub probe_interval_ms: u64,
    /// Per-attempt forwarding timeout.
    pub attempt_timeout_ms: u64,
    /// Extra forwarding attempts after the first failure.
    pub max_retries: u32,
    /// Backoff before retry `n` is `min(retry_base_ms << n, retry_cap_ms)`.
    pub retry_base_ms: u64,
    /// Backoff ceiling.
    pub retry_cap_ms: u64,
    /// Record `GateRoute`/`BackendEject` trace events (unbounded memory
    /// under sustained load; meant for short diagnostic runs).
    pub trace: bool,
}

impl Default for GateConfig {
    fn default() -> Self {
        GateConfig {
            addr: "127.0.0.1:0".to_string(),
            backends: Vec::new(),
            routers: 8,
            queue_depth: 128,
            vnodes: 128,
            inflight_cap: 32,
            eject_after: 3,
            readmit_ms: 500,
            probe_interval_ms: 100,
            attempt_timeout_ms: 10_000,
            max_retries: 2,
            retry_base_ms: 10,
            retry_cap_ms: 200,
            trace: false,
        }
    }
}

/// The gateway: the front end over the shared routing state.
pub struct Gateway {
    front: Front<Shared>,
    probe_interval: Duration,
}

/// What `daeg` plugs into the front end: the routing state shared by
/// readers, routers and the probe thread.
struct Shared {
    fleet: Vec<Backend>,
    ring: Ring,
    metrics: GateMetrics,
    started: Instant,
    cfg: RouteCfg,
    recorder: Option<Mutex<Recorder>>,
    probe_id: AtomicU64,
}

/// The routing knobs the hot path reads (copied out of [`GateConfig`]).
#[derive(Clone, Copy)]
struct RouteCfg {
    inflight_cap: usize,
    eject_after: u32,
    readmit: Duration,
    attempt_timeout: Duration,
    max_retries: u32,
    retry_base_ms: u64,
    retry_cap_ms: u64,
}

impl Gateway {
    /// Binds the listener; routing starts with [`Gateway::run`].
    pub fn bind(config: &GateConfig) -> std::io::Result<Gateway> {
        let fleet: Vec<Backend> = config
            .backends
            .iter()
            .enumerate()
            .map(|(i, addr)| Backend::new(addr.clone(), i))
            .collect();
        let ring = Ring::new(&config.backends, config.vnodes);
        let shared = Shared {
            fleet,
            ring,
            metrics: GateMetrics::new(),
            started: Instant::now(),
            cfg: RouteCfg {
                inflight_cap: config.inflight_cap.max(1),
                eject_after: config.eject_after.max(1),
                readmit: Duration::from_millis(config.readmit_ms.max(1)),
                attempt_timeout: Duration::from_millis(config.attempt_timeout_ms.max(1)),
                max_retries: config.max_retries,
                retry_base_ms: config.retry_base_ms,
                retry_cap_ms: config.retry_cap_ms.max(config.retry_base_ms),
            },
            recorder: config.trace.then(|| Mutex::new(Recorder::new(config.backends.len().max(1)))),
            probe_id: AtomicU64::new(0),
        };
        Ok(Gateway {
            front: Front::bind(&config.addr, config.routers, config.queue_depth, shared)?,
            probe_interval: Duration::from_millis(config.probe_interval_ms),
        })
    }

    /// The bound address (the actual port when `addr` asked for port 0).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.front.local_addr()
    }

    /// Serves until a drain is requested (a `shutdown` frame or
    /// SIGTERM/SIGINT), completes all admitted work, and returns. Every
    /// admitted request is answered before `run` returns.
    pub fn run(&self) -> std::io::Result<()> {
        let shared = self.front.service();
        std::thread::scope(|scope| {
            if !self.probe_interval.is_zero() && !shared.fleet.is_empty() {
                scope.spawn(|| {
                    while !self.front.draining() {
                        probe_fleet(shared);
                        std::thread::sleep(self.probe_interval);
                    }
                });
            }
            // Scope exit joins the probe thread, which stops with the drain.
            self.front.run()
        })
    }

    /// The captured trace events (empty when `trace` was off).
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        match &self.front.service().recorder {
            Some(r) => lock_recover(r).events().to_vec(),
            None => Vec::new(),
        }
    }

    /// Number of trace lanes (backends) for exporters.
    pub fn trace_lanes(&self) -> usize {
        self.front.service().fleet.len().max(1)
    }
}

impl Shared {
    fn record(&self, event: TraceEvent) {
        if let Some(r) = &self.recorder {
            lock_recover(r).record(event);
        }
    }

    /// Seconds since gateway start (the trace time base).
    fn now_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }
}

impl Service for Shared {
    const WORDING: Wording = Wording {
        overloaded: codes::OVERLOADED,
        draining: codes::DRAINING,
        deadline: codes::DEADLINE,
        daemon: "gateway",
        full_queue: "gateway queue",
        deadline_queue: "gateway queue",
    };
    /// With no deadline to rewrite, the client's frame is forwarded
    /// verbatim instead of re-serialising the (IR-sized) request per
    /// attempt.
    const KEEPS_FRAME: bool = true;
    const INLINE_WORK: bool = true;

    fn counters(&self) -> &AdmissionCounters {
        &self.metrics.admission
    }

    fn control(&self, op: Op, g: &Gauges) -> JsonValue {
        match op {
            Op::Stats => {
                let backends = self.fleet.iter().map(|b| b.to_json(self.cfg.readmit)).collect();
                self.metrics.to_json(self.started, g.queue_depth, g.workers, backends)
            }
            Op::Health => {
                let up = self
                    .fleet
                    .iter()
                    .filter(|b| b.state(self.cfg.readmit) == HealthState::Up)
                    .count();
                JsonValue::obj([
                    ("schema", GATE_HEALTH_SCHEMA.into()),
                    ("status", if g.draining { "draining" } else { "ok" }.into()),
                    ("backends", self.fleet.len().into()),
                    ("backends_up", up.into()),
                    ("queue_depth", g.queue_depth.into()),
                    ("queue_capacity", g.queue_capacity.into()),
                ])
            }
            _ => aggregate_profiles(self),
        }
    }

    /// Routes one admitted job through the fleet.
    fn work(&self, job: &Job, waited: Duration) {
        let t0 = Instant::now();
        let (line, ok) = route(self, job);
        job.conn.send(line);
        self.metrics.record_done(
            ok,
            waited.as_secs_f64(),
            waited.as_secs_f64() + t0.elapsed().as_secs_f64(),
        );
    }
}

/// Routes one work request: candidate walk, bounded-load spill, retries
/// with capped exponential backoff. Returns the response line (backend
/// bytes verbatim on success) and whether it is a success frame.
fn route(shared: &Shared, job: &Job) -> (String, bool) {
    let cfg = shared.cfg;
    let key = dae_serve::request_key(&job.req);
    let candidates = shared.ring.candidates(key);
    if candidates.is_empty() {
        return (no_backends(job), false);
    }
    // Routable candidates in key order, honouring health state. Nothing is
    // claimed yet: a half-open backend's one trial goes to the request
    // that is actually sent there.
    let admitted: Vec<usize> =
        candidates.iter().copied().filter(|&b| shared.fleet[b].routable(cfg.readmit)).collect();
    if admitted.is_empty() {
        return (no_backends(job), false);
    }
    // Bounded load: rotate past candidates already at their in-flight cap.
    // If every admitted backend is saturated, shed — queueing more onto a
    // saturated fleet only grows tail latency.
    let start = match admitted
        .iter()
        .position(|&b| shared.fleet[b].inflight.load(Ordering::Relaxed) < cfg.inflight_cap)
    {
        Some(i) => i,
        None => {
            shared.metrics.admission.shed.fetch_add(1, Ordering::Relaxed);
            let e = ErrorBody::new(
                codes::OVERLOADED,
                format!("all {} routable backends at in-flight cap", admitted.len()),
            );
            return (err_response(&job.req.id, &e), false);
        }
    };
    let spilled = start > 0 || admitted[0] != candidates[0];
    if spilled {
        shared.metrics.spills.fetch_add(1, Ordering::Relaxed);
    }
    let order: Vec<usize> = admitted[start..].iter().chain(&admitted[..start]).copied().collect();

    let id_json = job.req.id.to_json_string();
    let route_start_s = shared.now_s();
    let t0 = Instant::now();

    // One attempt in flight at a time, on this thread (a router, or the
    // reader of an inline job): `Backend::call` enforces the per-attempt
    // timeout through socket deadlines.
    let mut attempts: u32 = 0;
    let mut cursor = 0;
    loop {
        // Claim the next candidate that still admits (another request may
        // have taken a half-open trial since the walk above).
        let claimed = (0..order.len())
            .find(|&i| shared.fleet[order[(cursor + i) % order.len()]].admit(cfg.readmit));
        let Some(skip) = claimed else {
            return (no_backends(job), false);
        };
        let backend_idx = order[(cursor + skip) % order.len()];
        cursor += skip + 1;
        let rebuilt;
        let line: &str = match job.deadline {
            None => &job.raw,
            Some(_) => {
                rebuilt = forward_line(&job.req, job.deadline);
                &rebuilt
            }
        };
        let timeout = attempt_timeout(cfg, job.deadline);
        attempts += 1;
        match shared.fleet[backend_idx].call(line, &id_json, timeout) {
            Ok(resp) => {
                note_route_success(shared, backend_idx);
                shared.record(TraceEvent::GateRoute {
                    core: backend_idx as u32,
                    key,
                    backend: shared.fleet[backend_idx].addr.clone(),
                    attempts,
                    spilled,
                    start_s: route_start_s,
                    dur_s: t0.elapsed().as_secs_f64(),
                });
                return (resp, true);
            }
            Err(err) => {
                note_route_failure(shared, backend_idx, &err);
                // A backend-origin failure is retryable on another
                // backend: every work op is deterministic, so a second
                // execution is safe (idempotent).
                if attempts <= cfg.max_retries && !job.expired() && order.len() > 1 {
                    let backoff = retry_backoff(cfg, attempts);
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
                    }
                    shared.metrics.retries.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                return route_failed(job, shared, attempts, &err.describe());
            }
        }
    }
}

/// The terminal failure response of a route: `gate.deadline` if the
/// client's budget ran out along the way, `gate.upstream` otherwise.
fn route_failed(job: &Job, shared: &Shared, attempts: u32, last_error: &str) -> (String, bool) {
    if job.expired() {
        shared.metrics.admission.deadline_expired.fetch_add(1, Ordering::Relaxed);
        let e = ErrorBody::new(
            codes::DEADLINE,
            format!("deadline of {} ms expired while routing", job.req.deadline_ms),
        );
        return (err_response(&job.req.id, &e), false);
    }
    let e = ErrorBody::new(
        codes::UPSTREAM,
        format!("{attempts} attempt(s) failed; last: {last_error}"),
    );
    (err_response(&job.req.id, &e), false)
}

fn no_backends(job: &Job) -> String {
    let e = ErrorBody::new(codes::NO_BACKENDS, "no routable backend (all ejected or draining)");
    err_response(&job.req.id, &e)
}

/// Per-attempt timeout: the configured cap, shrunk to the remaining
/// deadline budget when one exists.
fn attempt_timeout(cfg: RouteCfg, deadline: Option<Instant>) -> Duration {
    match deadline {
        Some(d) => {
            let remaining = d.saturating_duration_since(Instant::now());
            cfg.attempt_timeout.min(remaining).max(Duration::from_millis(1))
        }
        None => cfg.attempt_timeout,
    }
}

/// Capped exponential backoff before retry `attempt` (1-based).
fn retry_backoff(cfg: RouteCfg, attempt: u32) -> Duration {
    let exp = cfg.retry_base_ms.saturating_mul(1u64 << attempt.min(16).saturating_sub(1));
    Duration::from_millis(exp.min(cfg.retry_cap_ms))
}

fn note_route_success(shared: &Shared, backend_idx: usize) {
    if shared.fleet[backend_idx].note_success() {
        shared.metrics.readmits.fetch_add(1, Ordering::Relaxed);
    }
}

fn note_route_failure(shared: &Shared, backend_idx: usize, err: &CallError) {
    let b = &shared.fleet[backend_idx];
    if let Some(failures) = b.note_failure(shared.cfg.eject_after) {
        shared.metrics.ejects.fetch_add(1, Ordering::Relaxed);
        b.drop_pool();
        shared.record(TraceEvent::BackendEject {
            core: backend_idx as u32,
            backend: b.addr.clone(),
            reason: err.describe(),
            failures,
            start_s: shared.now_s(),
        });
    }
}

/// The canonical forward frame: the client's fields re-serialised with
/// the deadline budget decremented by the time already spent here. The
/// backend's response-cache key ignores `id` and `deadline_ms`, so the
/// rewrite never breaks cache affinity.
fn forward_line(req: &Request, deadline: Option<Instant>) -> String {
    let mut pairs: Vec<(String, JsonValue)> = Vec::with_capacity(6);
    pairs.push(("id".to_string(), req.id.clone()));
    pairs.push(("op".to_string(), JsonValue::Str(req.op.as_str().to_string())));
    pairs.push(("ir".to_string(), JsonValue::Str(req.ir.clone())));
    if !req.hints.is_empty() {
        let hints = req.hints.iter().map(|&h| JsonValue::Num(h as f64)).collect();
        pairs.push(("hints".to_string(), JsonValue::Arr(hints)));
    }
    if let Some(policy) = &req.policy {
        pairs.push(("policy".to_string(), JsonValue::Str(policy.clone())));
    }
    if let Some(d) = deadline {
        let remaining_ms = d.saturating_duration_since(Instant::now()).as_millis() as u64;
        // Never forward 0 (= "no deadline"): an expired budget surfaces as
        // `gate.deadline` here, not as an unbounded request there.
        pairs.push(("deadline_ms".to_string(), JsonValue::Num(remaining_ms.max(1) as f64)));
    }
    JsonValue::Obj(pairs).to_json_string()
}

/// Fans a `profiles` request out to every routable backend and merges
/// the answers: per-backend bodies verbatim plus the fleet-wide count of
/// profile records held, summed from them. Schema `dae-gate-profiles/2`
/// dropped the recompile-worker totals.
fn aggregate_profiles(shared: &Shared) -> JsonValue {
    let mut backends = Vec::with_capacity(shared.fleet.len());
    let mut records = 0.0f64;
    for b in shared.fleet.iter() {
        if b.state(shared.cfg.readmit) != HealthState::Up {
            backends.push(JsonValue::obj([
                ("addr", b.addr.as_str().into()),
                ("ok", false.into()),
                ("error", b.state(shared.cfg.readmit).as_str().into()),
            ]));
            continue;
        }
        let id = shared.probe_id.fetch_add(1, Ordering::Relaxed);
        let line = format!("{{\"id\":\"gate-profiles-{id}\",\"op\":\"profiles\"}}");
        let id_json = format!("\"gate-profiles-{id}\"");
        match b.call(&line, &id_json, Duration::from_millis(1000)) {
            Ok(resp) => {
                let result = dae_trace::json::parse(&resp)
                    .ok()
                    .and_then(|v| v.get("result").cloned())
                    .unwrap_or(JsonValue::Null);
                records += result
                    .get("store")
                    .and_then(|s| s.get("resident"))
                    .and_then(JsonValue::as_f64)
                    .unwrap_or(0.0);
                backends.push(JsonValue::obj([
                    ("addr", b.addr.as_str().into()),
                    ("ok", true.into()),
                    ("result", result),
                ]));
            }
            Err(err) => backends.push(JsonValue::obj([
                ("addr", b.addr.as_str().into()),
                ("ok", false.into()),
                ("error", err.describe().into()),
            ])),
        }
    }
    JsonValue::obj([
        ("schema", "dae-gate-profiles/2".into()),
        ("totals", JsonValue::obj([("profile_records", records.into())])),
        ("backends", JsonValue::Arr(backends)),
    ])
}

/// One round of `health` probes over the fleet, driving the state machine
/// from the results: failures eject, `draining` bodies quarantine,
/// recoveries re-admit.
fn probe_fleet(shared: &Shared) {
    for b in shared.fleet.iter() {
        shared.metrics.probes.fetch_add(1, Ordering::Relaxed);
        let id = shared.probe_id.fetch_add(1, Ordering::Relaxed);
        let line = format!("{{\"id\":\"gate-probe-{id}\",\"op\":\"health\"}}");
        let id_json = format!("\"gate-probe-{id}\"");
        match b.call(&line, &id_json, Duration::from_millis(250)) {
            Ok(resp) => {
                let result =
                    dae_trace::json::parse(&resp).ok().and_then(|v| v.get("result").cloned());
                let draining = result
                    .as_ref()
                    .and_then(|r| r.get("status"))
                    .and_then(JsonValue::as_str)
                    .map(|s| s == "draining")
                    .unwrap_or(false);
                // Ride-along scrape: health bodies carry the backend's
                // profile counters for `stats`.
                if let Some(pgo) = result.as_ref().and_then(|r| r.get("pgo")) {
                    b.note_pgo(pgo.clone());
                }
                if draining {
                    if b.note_draining() {
                        shared.record(TraceEvent::BackendEject {
                            core: b.index as u32,
                            backend: b.addr.clone(),
                            reason: "draining".to_string(),
                            failures: 0,
                            start_s: shared.now_s(),
                        });
                    }
                } else if b.note_success() {
                    shared.metrics.readmits.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(err) => {
                if let Some(failures) = b.note_failure(shared.cfg.eject_after) {
                    shared.metrics.ejects.fetch_add(1, Ordering::Relaxed);
                    b.drop_pool();
                    shared.record(TraceEvent::BackendEject {
                        core: b.index as u32,
                        backend: b.addr.clone(),
                        reason: err.describe(),
                        failures,
                        start_s: shared.now_s(),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dae_serve::parse_request;

    fn req(deadline_ms: u64) -> Request {
        parse_request(&format!(
            r#"{{"id":7,"op":"compile","ir":"x","hints":[4,8],"policy":"dae-optimal","deadline_ms":{deadline_ms}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn forward_line_decrements_the_deadline_budget() {
        let r = req(10_000);
        let deadline = Instant::now() + Duration::from_millis(600);
        let line = forward_line(&r, Some(deadline));
        let v = dae_trace::json::parse(&line).unwrap();
        let fwd = v.get("deadline_ms").unwrap().as_f64().unwrap();
        assert!((1.0..=600.0).contains(&fwd), "forwarded budget {fwd} not decremented");
        assert_eq!(v.get("op").unwrap().as_str(), Some("compile"));
        assert_eq!(v.get("policy").unwrap().as_str(), Some("dae-optimal"));
        assert_eq!(v.get("hints").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn forward_line_is_reparsable_and_key_stable() {
        let r = req(0);
        let line = forward_line(&r, None);
        let reparsed = parse_request(&line).unwrap();
        assert_eq!(dae_serve::request_key(&r), dae_serve::request_key(&reparsed));
        assert!(!line.contains("deadline_ms"), "no budget means no deadline field");
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let cfg = RouteCfg {
            inflight_cap: 1,
            eject_after: 1,
            readmit: Duration::from_millis(1),
            attempt_timeout: Duration::from_secs(1),
            max_retries: 8,
            retry_base_ms: 10,
            retry_cap_ms: 80,
        };
        assert_eq!(retry_backoff(cfg, 1), Duration::from_millis(10));
        assert_eq!(retry_backoff(cfg, 2), Duration::from_millis(20));
        assert_eq!(retry_backoff(cfg, 3), Duration::from_millis(40));
        assert_eq!(retry_backoff(cfg, 4), Duration::from_millis(80));
        assert_eq!(retry_backoff(cfg, 9), Duration::from_millis(80), "capped");
    }
}
