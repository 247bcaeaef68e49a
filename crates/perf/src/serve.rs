//! The three socket workloads: `serve-hit`, `serve-miss` and `gate-fleet`.
//!
//! Load comes from one process in a closed loop: `min(2, nproc)` client
//! connections (`serve-miss`: one), each sending its next request when the
//! previous reply has arrived. Servers run in-process with two workers. One operation is one
//! request; latency is what the client observes, quantiles are exact from
//! the raw samples a client took in a 25 ms window.
//!
//! * `serve-hit` — `Mix::Mixed` over the serve corpus: 96 distinct
//!   requests, all memoised before timing. Every request is answered on
//!   the server's reader thread: socket, `parse_request`, `request_key`
//!   and a response-cache peek. Simulator and compiler work cannot show.
//! * `serve-miss` — `run` requests whose `(program, hint, policy)` never
//!   repeat, the driver warmed with one compile per (program, hint) pair.
//!   Every request crosses queue → IR parse → driver memory hit → lowering
//!   → three simulated runs per task → profile merge → report JSON → a
//!   response-cache insert, and the stream overflows the cache, so inserts
//!   evict. The cache `serve-hit` only reads is written here.
//! * `gate-fleet` — a `Gateway` over two in-process `daed`s on
//!   `Mix::Warm`, each backend's response cache sized so that one cannot
//!   hold the probed working set and two sharing it by key can. Adds ring
//!   routing, response validation and pooled backend hops to the hit path.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dae_gate::{GateConfig, Gateway, Ring};
use dae_governor::SplitMix64;
use dae_pgo::{PhaseProfile, PhaseSample, ProfileStore};
use dae_power::DvfsTable;
use dae_serve::load::{client_rng, corpus_program, request_frame, shutdown, CORPUS};
use dae_serve::{
    ok_response_raw, parse_request, request_key, Engine, EngineConfig, EngineKind, Mix, Request,
    Server, ServerConfig,
};
use dae_trace::json::{parse, JsonValue};

use crate::metrics::{exact_quantile, median, Outcome, Rep, Stat};
use crate::probe::ns_per_unit;
use crate::span::Tracer;
use crate::{clients, probe_setups, RunOpts};

/// Which socket workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `serve-hit`.
    Hit,
    /// `serve-miss`.
    Miss,
    /// `gate-fleet`.
    Gate,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Hit => "serve-hit",
            Kind::Miss => "serve-miss",
            Kind::Gate => "gate-fleet",
        }
    }

    /// Client connections. The hit workloads open `min(2, nproc)`;
    /// `serve-miss` opens one. Two clients keep both workers simulating, so
    /// the run wants both virtual CPUs of a shared host all the time and
    /// follows whatever a neighbour leaves of them: over ten interleaved
    /// runs each, two clients spread 5–8% (quartile distance over median)
    /// and one client 3–5%, on every metric. One request in flight still
    /// crosses every layer the workload is about.
    fn clients(self) -> usize {
        match self {
            Kind::Miss => 1,
            Kind::Hit | Kind::Gate => clients(),
        }
    }

    /// Set-ups one probe process times: more where one is cheap.
    fn setups_per_probe(self) -> usize {
        match self {
            Kind::Hit => 5,
            Kind::Miss => 10,
            Kind::Gate => 1,
        }
    }
}

const WORKERS: usize = 2;
/// The timed run is cut into this many segments, and set-up is timed after
/// each, in a process of its own while the run's fleet idles. In one block
/// before the run, as they were, the set-ups all fell into one spell of the
/// host: the medians of two sets of ten runs, twenty minutes apart, read 36
/// and 45 ms for `serve-hit`.
const SEGMENTS: usize = 4;
/// Length of one timed repetition. On a shared host the quiet moments are
/// short: the shorter the window, the more of them a run catches whole. At
/// 25 ms the slowest workload (`serve-miss`, one client) still puts over
/// forty requests in a window, and a reported quantile is the mean over the
/// best tenth of a run's windows, 88 of 880 at 22 s.
const WINDOW_S: f64 = 0.025;
/// Untraced/traced loop pairs behind `trace.overhead_share`.
const TRACE_PAIRS: usize = 3;
const OPS: [&str; 3] = ["compile", "report", "run"];
/// `serve-miss` draws hints from the set `Mix::Mixed` uses; set-up
/// compiles every (program, hint) pair, so timed requests hit the driver.
const MISS_HINTS: [u32; 4] = [64, 128, 192, 256];
/// Share of the probed working set each `gate-fleet` backend may cache:
/// too little for one backend, enough for two whatever the ring split. At
/// one half the backend with the larger ring share thrashes (the replay is
/// cyclic) and throughput follows the ephemeral ports in the ring's keys.
const BACKEND_CACHE_SHARE: f64 = 0.75;

/// One request, compactly: rendered to a frame only when it is sent.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct Spec {
    variant: u8,
    op: u8,
    hint: u32,
    /// `dae-phases` access and execute frequencies in MHz; `None` sends no
    /// policy field.
    phases_mhz: Option<(u16, u16)>,
}

/// Renders specs to frames; the corpus IR is JSON-escaped once so frame
/// assembly stays cheap next to the server work being measured.
struct Frames {
    ir_json: Vec<String>,
}

impl Frames {
    fn new() -> Frames {
        let ir_json =
            (0..CORPUS).map(|v| JsonValue::from(corpus_program(v)).to_json_string()).collect();
        Frames { ir_json }
    }

    fn line(&self, s: Spec, id: u64, out: &mut String) {
        use std::fmt::Write as _;
        out.clear();
        let _ = write!(
            out,
            "{{\"id\":{id},\"op\":\"{}\",\"ir\":{},\"hints\":[{}]",
            OPS[s.op as usize], self.ir_json[s.variant as usize], s.hint
        );
        if let Some((a, e)) = s.phases_mhz {
            let ghz = |mhz: u16| format!("{}.{:03}", mhz / 1000, mhz % 1000);
            let _ = write!(out, ",\"policy\":\"dae-phases:{},{}\"", ghz(a), ghz(e));
        }
        out.push_str("}\n");
    }

    fn request(&self, s: Spec, id: u64) -> Request {
        let mut line = String::new();
        self.line(s, id, &mut line);
        parse_request(line.trim_end()).expect("generated frame is valid")
    }
}

/// Per-client request streams, drawn from the run's seed.
fn streams(kind: Kind, opts: &RunOpts) -> Vec<Vec<Spec>> {
    let n = kind.clients();
    let (seed, smoke) = (opts.seed, opts.smoke);
    match kind {
        Kind::Hit | Kind::Gate => {
            // The streams `dae-load` and the gateway bench replay for this
            // seed, read back into specs.
            let (mix, len) = if kind == Kind::Hit { (Mix::Mixed, 2048) } else { (Mix::Warm, 512) };
            let len = if smoke { 16 } else { len };
            let variant_of: HashMap<String, u8> =
                (0..CORPUS).map(|v| (corpus_program(v), v as u8)).collect();
            (0..n)
                .map(|c| {
                    let mut rng = client_rng(seed, c as u64);
                    (0..len)
                        .map(|k| {
                            let f = request_frame(mix, &mut rng, k);
                            let text = |key: &str| {
                                f.get(key).and_then(JsonValue::as_str).expect("frame field")
                            };
                            let hint = f.get("hints").and_then(JsonValue::as_arr).expect("hints")
                                [0]
                            .as_f64()
                            .expect("hint");
                            Spec {
                                variant: variant_of[text("ir")],
                                op: OPS.iter().position(|o| *o == text("op")).expect("work op")
                                    as u8,
                                hint: hint as u32,
                                phases_mhz: None,
                            }
                        })
                        .collect()
                })
                .collect()
        }
        Kind::Miss => {
            // Triple k of a client is `offset + k·stride` in the mixed
            // radix (program, hint, access MHz, execute MHz): a stride
            // coprime to the space visits every triple once, so none
            // repeats. Frequencies snap to the DVFS table on the server —
            // a different spelling is a different cache key for equal work.
            let (lo, hi) = mhz_range();
            let span = u64::from(hi - lo) + 1;
            let space = CORPUS as u64 * MISS_HINTS.len() as u64 * span * span;
            let mut rng = SplitMix64::new(seed);
            let offset = rng.next_below(space);
            let stride = loop {
                let s = rng.next_below(space) | 1;
                if gcd(s, space) == 1 {
                    break s;
                }
            };
            // Longer than a client can get through; a wrapped stream would
            // repeat requests and is counted as a failure.
            let len = if smoke { 4096 } else { (opts.seconds * 8000.0) as u64 };
            (0..n as u64)
                .map(|c| {
                    (0..len)
                        .map(|k| {
                            let mut t =
                                (offset + (k * n as u64 + c) % space * stride % space) % space;
                            let mut digit = |radix: u64| {
                                let d = t % radix;
                                t /= radix;
                                d
                            };
                            Spec {
                                variant: digit(CORPUS as u64) as u8,
                                op: 2,
                                hint: MISS_HINTS[digit(MISS_HINTS.len() as u64) as usize],
                                phases_mhz: Some((
                                    lo + digit(span) as u16,
                                    lo + digit(span) as u16,
                                )),
                            }
                        })
                        .collect()
                })
                .collect()
        }
    }
}

/// The DVFS table's range in MHz.
fn mhz_range() -> (u16, u16) {
    let t = DvfsTable::sandybridge();
    ((t.point(t.min()).ghz * 1e3) as u16, (t.point(t.max()).ghz * 1e3) as u16)
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// FNV-1a over the first requests of every stream: same seed, same digest.
fn stream_digest(streams: &[Vec<Spec>]) -> String {
    let mut h = dae_serve::Fnv64::new();
    for s in streams.iter().flat_map(|s| s.iter().take(4096)) {
        let (a, e) = s.phases_mhz.unwrap_or_default();
        h.write(&[s.variant, s.op]);
        h.write_u64(u64::from(s.hint) << 32 | u64::from(a) << 16 | u64::from(e));
    }
    format!("{:016x}", h.finish())
}

fn engine_config(resp_max_bytes: Option<usize>) -> EngineConfig {
    let d = EngineConfig::default();
    EngineConfig {
        engine: EngineKind::Bytecode,
        resp_max_bytes: resp_max_bytes.unwrap_or(d.resp_max_bytes),
        ..d
    }
}

type Daemon = (String, JoinHandle<std::io::Result<()>>);

/// The system under test: one `daed`, or a gateway over two.
struct Fleet {
    /// Address clients connect to.
    front: String,
    backends: Vec<Daemon>,
    gateway: Option<Daemon>,
}

impl Fleet {
    fn start(kind: Kind, backend_cache: Option<usize>) -> std::io::Result<Fleet> {
        let mut backends = Vec::new();
        for _ in 0..if kind == Kind::Gate { 2 } else { 1 } {
            let server = Server::bind(&ServerConfig {
                workers: WORKERS,
                queue_depth: 64,
                engine: engine_config(backend_cache),
                ..ServerConfig::default()
            })?;
            let addr = server.local_addr()?.to_string();
            backends.push((addr, std::thread::spawn(move || server.run())));
        }
        let gateway = if kind == Kind::Gate {
            let gateway = Gateway::bind(&GateConfig {
                backends: backends.iter().map(|b| b.0.clone()).collect(),
                routers: 8,
                queue_depth: 64,
                inflight_cap: 8,
                ..GateConfig::default()
            })?;
            let addr = gateway.local_addr()?.to_string();
            Some((addr, std::thread::spawn(move || gateway.run())))
        } else {
            None
        };
        let front = gateway.as_ref().map_or(&backends[0].0, |g| &g.0).clone();
        Ok(Fleet { front, backends, gateway })
    }

    /// The workload's set-up: daemons started, caches warmed.
    fn set_up(
        kind: Kind,
        backend_cache: Option<usize>,
        frames: &Frames,
        streams: &[Vec<Spec>],
    ) -> Result<Fleet, String> {
        let fleet = Fleet::start(kind, backend_cache).map_err(|e| e.to_string())?;
        warm(kind, &fleet.front, frames, streams)?;
        Ok(fleet)
    }

    /// Drains and joins every daemon thread.
    fn stop(self) -> std::io::Result<()> {
        for (addr, handle) in self.gateway.into_iter().chain(self.backends) {
            shutdown(&addr)?;
            handle.join().map_err(|_| std::io::Error::other("daemon thread panicked"))??;
        }
        Ok(())
    }
}

/// A client connection: one frame out, one line back.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn { writer: stream.try_clone()?, reader: BufReader::new(stream) })
    }

    fn call(
        &mut self,
        line: &str,
        resp: &mut String,
        op: u64,
        t: &mut Tracer,
    ) -> std::io::Result<()> {
        t.span("client.write", op, |_| self.writer.write_all(line.as_bytes()))?;
        resp.clear();
        if t.span("client.wait", op, |_| self.reader.read_line(resp))? == 0 {
            return Err(std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "server closed"));
        }
        Ok(())
    }

    /// A control request's `result` object.
    fn control(&mut self, op: &str) -> std::io::Result<JsonValue> {
        let mut resp = String::new();
        self.call(&format!("{{\"id\":0,\"op\":\"{op}\"}}\n"), &mut resp, 0, &mut Tracer::off())?;
        parse(&resp)
            .ok()
            .and_then(|v| v.get("result").cloned())
            .ok_or_else(|| std::io::Error::other(format!("bad `{op}` response")))
    }
}

/// When a client loop ends.
#[derive(Clone, Copy)]
enum Until {
    Time(Instant),
    Requests(usize),
}

/// What one client observed.
#[derive(Default)]
struct Observed {
    /// Requests completed.
    requests: u64,
    /// Of a loop that ends on the clock: one repetition per whole window
    /// (of [`WINDOW_S`], numbered from the origin) in which this client
    /// completed a request. Its quantiles are exact from the window's raw
    /// samples, which are then dropped: kept to the end of the run they
    /// were 8 of `serve-hit`'s 18 MiB of peak memory and grew with its
    /// throughput.
    windows: Vec<(usize, Rep)>,
    /// Of a loop that ends on a request count: the latency of each request
    /// in nanoseconds (saturating at 4.29 s), in completion order.
    lat_ns: Vec<u32>,
    failed: u64,
    /// A 1-in-N sample of `(request, id, response)` for the output oracle.
    sampled: Vec<(Spec, u64, String)>,
}

/// One client's closed loop over `specs`, starting at `*cursor`.
#[allow(clippy::too_many_arguments)]
fn client_loop(
    addr: &str,
    frames: &Frames,
    specs: &[Spec],
    cursor: &mut usize,
    until: Until,
    origin: Instant,
    sample_every: usize,
    tracer: &mut Tracer,
) -> std::io::Result<Observed> {
    let mut conn = Conn::open(addr)?;
    let mut obs = Observed::default();
    // The window being filled and the latencies in it, in milliseconds.
    let (mut window, mut in_window) = (0, Vec::new());
    let (mut line, mut resp) = (String::new(), String::new());
    loop {
        match until {
            Until::Time(t) if Instant::now() >= t => break,
            Until::Requests(n) if obs.requests >= n as u64 => break,
            _ => {}
        }
        let spec = specs[*cursor % specs.len()];
        let id = *cursor as u64;
        *cursor += 1;
        frames.line(spec, id, &mut line);
        let sent = Instant::now();
        conn.call(&line, &mut resp, id, tracer)?;
        let done = Instant::now();
        obs.requests += 1;
        match until {
            // The window the run ends in is cut short and never closed.
            Until::Time(_) => {
                let now = ((done - origin).as_secs_f64() / WINDOW_S) as usize;
                if now != window && !in_window.is_empty() {
                    let rep = Rep::new(in_window.len() as f64 / WINDOW_S, &mut in_window);
                    obs.windows.push((window, rep));
                    in_window.clear();
                }
                window = now;
                in_window.push((done - sent).as_secs_f64() * 1e3);
            }
            Until::Requests(_) => {
                obs.lat_ns.push(u32::try_from((done - sent).as_nanos()).unwrap_or(u32::MAX));
            }
        }
        // Inside a JSON string quotes are escaped, so these raw bytes can
        // only be the envelope; sheds and errors both fail the request.
        obs.failed += u64::from(!resp.contains("\"ok\":true"));
        if obs.requests % sample_every as u64 == 1 {
            obs.sampled.push((spec, id, resp.trim_end().to_string()));
        }
    }
    Ok(obs)
}

/// Every client's loop at once; per-client cursors persist across calls.
fn drive(
    addr: &str,
    frames: &Frames,
    streams: &[Vec<Spec>],
    cursors: &mut [usize],
    until: Until,
    sample_every: usize,
    tracers: &mut [Tracer],
) -> Result<(Vec<Observed>, f64), String> {
    let origin = Instant::now();
    let results: Vec<std::io::Result<Observed>> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .zip(cursors.iter_mut())
            .zip(tracers.iter_mut())
            .map(|((specs, cursor), tracer)| {
                scope.spawn(move || {
                    client_loop(addr, frames, specs, cursor, until, origin, sample_every, tracer)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let wall_s = origin.elapsed().as_secs_f64();
    let observed = results.into_iter().collect::<Result<Vec<_>, _>>().map_err(|e| e.to_string())?;
    Ok((observed, wall_s))
}

/// Requests sent before timing so caches are as the workload wants them:
/// every distinct request once (hit workloads), or one compile per
/// (program, hint) pair (`serve-miss`: a warm driver, a cold response
/// cache).
fn warm_specs(kind: Kind, streams: &[Vec<Spec>]) -> Vec<Spec> {
    match kind {
        Kind::Miss => (0..CORPUS as u8)
            .flat_map(|variant| {
                MISS_HINTS.map(|hint| Spec { variant, op: 0, hint, phases_mhz: None })
            })
            .collect(),
        _ => streams.iter().flatten().copied().collect::<BTreeSet<_>>().into_iter().collect(),
    }
}

fn warm(kind: Kind, addr: &str, frames: &Frames, streams: &[Vec<Spec>]) -> Result<(), String> {
    let specs = warm_specs(kind, streams);
    let n = specs.len();
    let obs = client_loop(
        addr,
        frames,
        &specs,
        &mut 0,
        Until::Requests(n),
        Instant::now(),
        n + 1,
        &mut Tracer::off(),
    )
    .map_err(|e| e.to_string())?;
    if obs.failed > 0 {
        return Err(format!("{} warm-up requests failed", obs.failed));
    }
    Ok(())
}

/// Total response bytes of the distinct requests of `streams`: the
/// working set a `gate-fleet` backend cache is sized against.
fn working_set_bytes(frames: &Frames, streams: &[Vec<Spec>]) -> Result<usize, String> {
    let engine = Engine::new(&engine_config(Some(usize::MAX / 2)));
    let distinct: BTreeSet<Spec> = streams.iter().flatten().copied().collect();
    distinct.into_iter().try_fold(0, |bytes, s| {
        engine.handle_raw(&frames.request(s, 0)).map(|r| bytes + r.len()).map_err(|e| e.message)
    })
}

/// Sampled responses must be byte-equal to what an engine that never saw
/// the server's state computes for the same request.
fn response_oracle(frames: &Frames, observed: &[Observed], out: &mut Outcome) {
    let engine = Engine::new(&engine_config(None));
    for (spec, id, resp) in observed.iter().flat_map(|o| &o.sampled) {
        let req = frames.request(*spec, *id);
        let expected = engine.handle_raw(&req).map(|r| ok_response_raw(&req.id, &r));
        out.check(expected.as_deref() == Ok(resp.as_str()));
    }
}

/// One repetition per window in which every client completed a request:
/// the clients' throughputs added, their quantiles averaged.
fn window_reps(observed: &[Observed]) -> Vec<Rep> {
    let mut by_window: BTreeMap<usize, Vec<Rep>> = BTreeMap::new();
    for (window, rep) in observed.iter().flat_map(|o| &o.windows) {
        by_window.entry(*window).or_default().push(*rep);
    }
    let clients = observed.len();
    by_window
        .into_values()
        .filter(|reps| reps.len() == clients)
        .map(|reps| {
            let sum = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(f).sum::<f64>();
            Rep {
                ops_per_s: sum(&|r| r.ops_per_s),
                p50_ms: sum(&|r| r.p50_ms) / clients as f64,
                p90_ms: sum(&|r| r.p90_ms) / clients as f64,
                p99_ms: sum(&|r| r.p99_ms) / clients as f64,
                samples: reps.iter().map(|r| r.samples).sum(),
            }
        })
        .collect()
}

/// What a `gate-fleet` backend may cache: [`BACKEND_CACHE_SHARE`] of the
/// probed working set.
fn backend_cache(
    kind: Kind,
    frames: &Frames,
    streams: &[Vec<Spec>],
) -> Result<Option<usize>, String> {
    if kind != Kind::Gate {
        return Ok(None);
    }
    let bytes = working_set_bytes(frames, streams)?;
    Ok(Some(((bytes as f64 * BACKEND_CACHE_SHARE) as usize).max(1)))
}

/// The seconds each of a few set-ups of the workload took, a fleet stopped,
/// untimed, before the next is started.
///
/// # Errors
///
/// Reports a daemon that could not start or a warm-up request that failed.
pub fn setup_probe(kind: Kind, opts: &RunOpts) -> Result<Vec<f64>, String> {
    let frames = Frames::new();
    let streams = streams(kind, opts);
    let backend_cache = backend_cache(kind, &frames, &streams)?;
    (0..kind.setups_per_probe())
        .map(|_| {
            let t0 = Instant::now();
            let fleet = Fleet::set_up(kind, backend_cache, &frames, &streams)?;
            let s = t0.elapsed().as_secs_f64();
            fleet.stop().map_err(|e| e.to_string())?;
            Ok(s)
        })
        .collect()
}

/// Runs the workload.
pub fn run(kind: Kind, opts: &RunOpts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let frames = Frames::new();
    let streams = streams(kind, opts);
    out.fact("stream_digest", stream_digest(&streams));
    out.fact("clients", streams.len());
    let backend_cache = backend_cache(kind, &frames, &streams)?;
    if let Some(bytes) = backend_cache {
        out.fact("backend_cache_bytes", bytes);
    }
    let t0 = Instant::now();
    let fleet = Fleet::set_up(kind, backend_cache, &frames, &streams)?;
    let setup_s = t0.elapsed().as_secs_f64();
    let result = if opts.trace {
        traced(kind, opts, &fleet, &frames, &streams, &mut out)
    } else {
        untraced(kind, opts, &fleet, setup_s, &frames, &streams, &mut out)
    };
    fleet.stop().map_err(|e| e.to_string())?;
    result?;
    Ok(out)
}

fn untraced(
    kind: Kind,
    opts: &RunOpts,
    fleet: &Fleet,
    own_setup_s: f64,
    frames: &Frames,
    streams: &[Vec<Spec>],
    out: &mut Outcome,
) -> Result<(), String> {
    let segments = opts.reps(SEGMENTS);
    let sample_every = if kind == Kind::Miss { 256 } else { 1024 };
    let mut tracers: Vec<Tracer> = streams.iter().map(|_| Tracer::off()).collect();
    let mut cursors = vec![0; streams.len()];
    let (mut reps, mut setup_s) = (Vec::new(), Vec::new());
    for _ in 0..segments {
        // One window more than the segment's share: the last one is cut
        // short and not counted.
        let segment_s = opts.seconds / segments as f64 + WINDOW_S;
        let until = Until::Time(Instant::now() + Duration::from_secs_f64(segment_s));
        let (observed, _) =
            drive(&fleet.front, frames, streams, &mut cursors, until, sample_every, &mut tracers)?;
        reps.extend(window_reps(&observed));
        out.attempted += observed.iter().map(|o| o.requests).sum::<u64>();
        out.failed += observed.iter().map(|o| o.failed).sum::<u64>();
        response_oracle(frames, &observed, out);
        if !opts.smoke {
            setup_s.extend(probe_setups(kind.name(), opts)?);
        }
    }
    // The run's own set-up counts only where no probe ran: straight after
    // the machine has idled it costs half of what it does a second later.
    if setup_s.is_empty() {
        setup_s.push(own_setup_s);
    }
    if kind == Kind::Miss {
        out.check(cursors.iter().zip(streams).all(|(c, s)| *c <= s.len()));
    }
    out.set("setup_s", Stat::best_of(&setup_s, false));
    out.report_reps(&reps);
    out.fact("window_s", WINDOW_S);
    Ok(())
}

/// Difference of a numeric field between two `stats` snapshots.
fn delta(before: &JsonValue, after: &JsonValue, path: &[&str]) -> f64 {
    let at = |v: &JsonValue| {
        path.iter().try_fold(v, |v, k| v.get(k)).and_then(JsonValue::as_f64).unwrap_or(0.0)
    };
    at(after) - at(before)
}

fn share(part: f64, rest: f64) -> f64 {
    if part + rest > 0.0 {
        part / (part + rest)
    } else {
        0.0
    }
}

fn traced(
    kind: Kind,
    opts: &RunOpts,
    fleet: &Fleet,
    frames: &Frames,
    streams: &[Vec<Spec>],
    out: &mut Outcome,
) -> Result<(), String> {
    // Counts, not seconds, end the traced loops, so the run's counters
    // repeat for a seed; `--seconds` scales them.
    let per_s = match kind {
        Kind::Hit => 500.0,
        Kind::Gate => 200.0,
        Kind::Miss => 75.0,
    };
    let requests = if opts.smoke { 32 } else { (opts.seconds * per_s) as usize };
    let until = Until::Requests(requests);
    let mut cursors = vec![0; streams.len()];
    let io = |e: std::io::Error| e.to_string();
    let mut control = Conn::open(&fleet.front).map_err(io)?;
    let mut backend_controls = fleet
        .backends
        .iter()
        .map(|b| Conn::open(&b.0))
        .collect::<Result<Vec<_>, _>>()
        .map_err(io)?;
    let mut stats = || -> Result<(JsonValue, Vec<JsonValue>), String> {
        let front = control.control("stats").map_err(io)?;
        let backends =
            backend_controls.iter_mut().map(|c| c.control("stats")).collect::<Result<_, _>>();
        Ok((front, backends.map_err(io)?))
    };

    // The same request count with tracing off and on, three times over;
    // the server's counters are read around the first untraced loop.
    let origin = Instant::now();
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let (mut first_plain, mut snapshots, mut on) = (None, None, Vec::new());
    for _ in 0..opts.reps(TRACE_PAIRS) {
        let before = stats()?;
        let mut off: Vec<Tracer> = streams.iter().map(|_| Tracer::off()).collect();
        let (plain, wall_s) =
            drive(&fleet.front, frames, streams, &mut cursors, until, 64, &mut off)?;
        let after = stats()?;
        plain_s.push(wall_s);
        on = (0..streams.len()).map(|c| Tracer::new(true, origin, c as u32 + 1)).collect();
        let (traced, traced_wall_s) =
            drive(&fleet.front, frames, streams, &mut cursors, until, 64, &mut on)?;
        traced_s.push(traced_wall_s);
        for o in plain.iter().chain(&traced) {
            out.attempted += o.requests;
            out.failed += o.failed;
        }
        if first_plain.is_none() {
            snapshots = Some((before, after));
            first_plain = Some((plain, wall_s));
        }
    }
    out.set_once("trace.overhead_share", median(&traced_s) / median(&plain_s) - 1.0);
    let (plain, plain_s) = first_plain.expect("at least one pair");
    let ((before, backends_before), (after, backends_after)) =
        snapshots.expect("at least one pair");
    response_oracle(frames, &plain, out);
    let mut lat_ms: Vec<f64> =
        plain.iter().flat_map(|o| &o.lat_ns).map(|l| f64::from(*l) / 1e6).collect();
    lat_ms.sort_by(f64::total_cmp);
    let tcp_p50_us = exact_quantile(&lat_ms, 0.5) * 1e3;
    out.set_once("client.p99_ms", exact_quantile(&lat_ms, 0.99));

    // The server's own view of the untraced window.
    let serve_stats: Vec<(&JsonValue, &JsonValue)> = if kind == Kind::Gate {
        backends_before.iter().zip(&backends_after).collect()
    } else {
        vec![(&before, &after)]
    };
    let sum = |path: &[&str]| serve_stats.iter().map(|(b, a)| delta(b, a, path)).sum::<f64>();
    let resp_hits = sum(&["cache", "resp_hits"]);
    let resp_misses = sum(&["cache", "resp_misses"]);
    if kind == Kind::Gate {
        out.set_once("gate.backend_resp_hit_share", share(resp_hits, resp_misses));
        let q = after.get("queue_wait").and_then(|q| q.get("p50_s")).and_then(JsonValue::as_f64);
        out.set_once("gate.queue_wait_p50_us", q.unwrap_or(0.0) * 1e6);
        for counter in ["retries", "hedges", "spills", "ejects"] {
            out.set_once(&format!("gate.{counter}"), delta(&before, &after, &[counter]));
        }
    } else {
        let latency = |name: &str, q: &str| {
            after
                .get("latency")
                .and_then(|l| l.get(name))
                .and_then(|h| h.get(q))
                .and_then(JsonValue::as_f64)
        };
        out.set_once(
            "serve.queue_wait_p50_us",
            latency("queue_wait", "p50_s").unwrap_or(0.0) * 1e6,
        );
        out.set_once(
            "serve.queue_wait_p99_us",
            latency("queue_wait", "p99_s").unwrap_or(0.0) * 1e6,
        );
        out.set_once("serve.service_p50_us.run", latency("run", "p50_s").unwrap_or(0.0) * 1e6);
        out.set_once("serve.resp_hit_share", share(resp_hits, resp_misses));
        let mem_hits = sum(&["cache", "mem_hits"]);
        out.set_once("serve.driver_mem_hit_share", share(mem_hits, sum(&["cache", "misses"])));
        // Histogram sums are mean × count; service includes the queue wait.
        let total_s = |s: &JsonValue, name: &str| {
            let h = s.get("latency").and_then(|l| l.get(name));
            let f = |k: &str| h.and_then(|h| h.get(k)).and_then(JsonValue::as_f64).unwrap_or(0.0);
            f("mean_s") * f("count")
        };
        let busy_s: f64 =
            OPS.iter().map(|op| total_s(&after, op) - total_s(&before, op)).sum::<f64>()
                - (total_s(&after, "queue_wait") - total_s(&before, "queue_wait"));
        out.set_once("serve.worker_busy_share", busy_s / (WORKERS as f64 * plain_s));
        out.set_once("serve.shed", sum(&["requests", "shed"]));
        out.set_once(
            "serve.failed",
            sum(&["requests", "failed"]) + sum(&["requests", "internal_errors"]),
        );
    }

    // The same stream replayed against an in-process engine, a span
    // around each public call a request makes on the server.
    let mut tracer = Tracer::new(true, origin, 0);
    let engine = Engine::new(&engine_config(None));
    for s in warm_specs(kind, streams) {
        engine.handle_raw(&frames.request(s, 0)).map_err(|e| e.message)?;
    }
    let ring = Ring::new(&fleet.backends.iter().map(|b| b.0.clone()).collect::<Vec<_>>(), 128);
    let mut line = String::new();
    for (k, spec) in streams[0].iter().take(requests).enumerate() {
        let op = k as u64;
        frames.line(*spec, op, &mut line);
        tracer.span("serve.request", op, |t| {
            let req = t
                .span("serve.parse_request", op, |_| parse_request(line.trim_end()))
                .expect("valid frame");
            let key = t.span("serve.request_key", op, |_| request_key(&req));
            if kind == Kind::Gate {
                t.span("gate.ring", op, |_| std::hint::black_box(ring.candidates(key)));
            }
            if t.span("serve.cached_response", op, |_| engine.cached_response(&req)).is_none() {
                let r = t.span("serve.handle_raw", op, |_| engine.handle_raw(&req));
                out.check(r.is_ok());
            }
        });
    }
    let med_us = |name: &str| {
        let d = tracer.durations_s(name);
        if d.is_empty() {
            0.0
        } else {
            median(&d) * 1e6
        }
    };
    out.set_once("serve.parse_request_us", med_us("serve.parse_request"));
    out.set_once("serve.request_key_us", med_us("serve.request_key"));
    if kind == Kind::Miss {
        out.set_once("serve.handle_miss_us", med_us("serve.handle_raw"));
    } else {
        out.set_once("serve.resp_hit_us", med_us("serve.cached_response"));
    }
    let probe_s = (opts.seconds / 16.0).min(0.5);
    match kind {
        Kind::Hit => {
            let in_process_us = med_us("serve.parse_request")
                + med_us("serve.request_key")
                + med_us("serve.cached_response");
            out.set_once("serve.socket_us", tcp_p50_us - in_process_us);
            json_probes(probe_s, frames, &streams[0], &plain, out);
        }
        Kind::Miss => {
            let mut store = ProfileStore::new();
            let mut profile = PhaseProfile::default();
            profile.absorb(
                None,
                &PhaseSample { instrs: 4096, loads: 512, branches: 512, ..PhaseSample::default() },
            );
            let merge_ns = ns_per_unit(probe_s, || {
                for key in 0..1024u64 {
                    store.merge_record(key % 16, &profile);
                }
                1024
            });
            out.set_once("pgo.store_merge_us", merge_ns / 1e3);
        }
        Kind::Gate => {
            let keys: Vec<u64> =
                streams[0].iter().map(|s| request_key(&frames.request(*s, 0))).collect();
            let ring_ns = ns_per_unit(probe_s, || {
                for k in &keys {
                    std::hint::black_box(ring.candidates(*k));
                }
                keys.len() as u64
            });
            out.set_once("gate.ring_ns", ring_ns);
            out.set_once("gate.hop_p50_us", hop_p50_us(fleet, frames, &ring, streams, requests)?);
        }
    }
    for t in on {
        tracer.absorb(t);
    }
    crate::finish_trace(kind.name(), &tracer, opts, out)
}

/// `trace.json.*`: the one JSON reader and writer on real request frames
/// and real response lines.
fn json_probes(
    probe_s: f64,
    frames: &Frames,
    specs: &[Spec],
    observed: &[Observed],
    out: &mut Outcome,
) {
    let mut texts: Vec<String> =
        observed.iter().flat_map(|o| &o.sampled).map(|s| s.2.clone()).collect();
    let mut line = String::new();
    for (k, s) in specs.iter().take(texts.len().max(1)).enumerate() {
        frames.line(*s, k as u64, &mut line);
        texts.push(line.trim_end().to_string());
    }
    let bytes: usize = texts.iter().map(String::len).sum();
    let parse_ns = ns_per_unit(probe_s, || {
        for t in &texts {
            std::hint::black_box(parse(t).is_ok());
        }
        bytes as u64
    });
    let values: Vec<JsonValue> = texts.iter().filter_map(|t| parse(t).ok()).collect();
    let write_ns = ns_per_unit(probe_s, || {
        for v in &values {
            std::hint::black_box(v.to_json_string());
        }
        bytes as u64
    });
    out.set_once("trace.json.parse_ns_per_byte", parse_ns);
    out.set_once("trace.json.write_ns_per_byte", write_ns);
}

/// Median latency through the gateway minus the median straight to the
/// home backend, on one identical stream of memoised requests.
fn hop_p50_us(
    fleet: &Fleet,
    frames: &Frames,
    ring: &Ring,
    streams: &[Vec<Spec>],
    requests: usize,
) -> Result<f64, String> {
    // Requests whose home is backend 0, so the direct path hits too.
    let hot: Vec<Spec> = streams[0]
        .iter()
        .copied()
        .filter(|s| ring.home(request_key(&frames.request(*s, 0))) == Some(0))
        .collect::<BTreeSet<_>>()
        .into_iter()
        .take(8)
        .collect();
    let mut p50 = [0.0; 2];
    for (slot, addr) in p50.iter_mut().zip([&fleet.front, &fleet.backends[0].0]) {
        let n = hot.len();
        let run = |until| {
            client_loop(
                addr,
                frames,
                &hot,
                &mut 0,
                until,
                Instant::now(),
                usize::MAX,
                &mut Tracer::off(),
            )
            .map_err(|e| e.to_string())
        };
        run(Until::Requests(2 * n))?;
        let mut us: Vec<f64> =
            run(Until::Requests(requests))?.lat_ns.iter().map(|l| f64::from(*l) / 1e3).collect();
        us.sort_by(f64::total_cmp);
        *slot = exact_quantile(&us, 0.5);
    }
    Ok(p50[0] - p50[1])
}
