//! `dae-load`'s heart: a deterministic, seeded load generator.
//!
//! The generator replays a reproducible request mix against a running
//! daemon: a [`SplitMix64`] stream seeded per client picks programs from a
//! small parameterised corpus, so distinct clients submit overlapping
//! programs — exactly the workload the shared incremental cache exists
//! for. Two seeds, two runs, one machine → the same request sequence; only
//! the measured latencies differ.
//!
//! Throughput and latency *measurement* of the serving stack lives in
//! `dae-perf` (`serve-hit`, `serve-miss`, `gate-fleet`), which replays
//! these same streams through [`client_rng`] and [`request_frame`].

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Instant;

use dae_trace::json::JsonValue;
use dae_trace::LogHistogram;
use dae_trace::SplitMix64;

/// Schema tag of a load run's JSON report.
pub(crate) const LOAD_SCHEMA: &str = "dae-serve-load/1";

/// Distinct programs in the corpus; variants cycle through it.
pub const CORPUS: usize = 8;

/// The `variant`-th corpus program: affine streams with distinct strides
/// and array lengths (so each variant has its own `task_key`), plus one
/// gather (skeleton strategy) and one refused store-only task, mirroring
/// the spread a real compile service would see.
pub fn corpus_program(variant: usize) -> String {
    let v = variant % CORPUS;
    match v {
        // Variant 6: indirect gather — compiles via the skeleton path.
        6 => "global g0 x : 8192 x f64\nglobal g1 idx : 2048 x i64\n\n\
              task fn gather(arg0: i64) {\nbb0:\n  jump bb1(0)\n\
              bb1(bb1p0: i64):\n  v0: bool = icmp lt bb1p0, arg0\n  br v0, bb2, bb3\n\
              bb2:\n  v1: i64 = imul bb1p0, 8\n  v2: ptr = ptradd @g1, v1\n\
              \x20 v3: i64 = load v2\n  v4: i64 = imul v3, 8\n  v5: ptr = ptradd @g0, v4\n\
              \x20 v6: f64 = load v5\n  v7: ptr = ptradd @g0, v1\n  store v7, v6\n\
              \x20 v8: i64 = iadd bb1p0, 1\n  jump bb1(v8)\nbb3:\n  ret\n}\n"
            .to_string(),
        // Variant 7: store-only task — the compiler refuses it.
        7 => "global g0 a : 64 x f64\n\n\
              task fn writeonly() {\nbb0:\n  v0: ptr = ptradd @g0, 0\n  store v0, 1.0\n  ret\n}\n"
            .to_string(),
        // Variants 0–5: affine streams (polyhedral strategy) over a
        // constant trip count, `arg0` as chunk offset, stride and length
        // per variant so every variant has its own `task_key`.
        _ => {
            let stride = 1 + v as i64;
            let len = 4096 * (1 + v);
            format!(
                "global g0 a : {len} x f64\n\n\
                 task fn stream{v}(arg0: i64) {{\nbb0:\n  jump bb1(0)\n\
                 bb1(bb1p0: i64):\n  v0: bool = icmp lt bb1p0, 512\n  br v0, bb2, bb3\n\
                 bb2:\n  v1: i64 = imul bb1p0, {stride}\n  v2: i64 = iadd arg0, v1\n\
                 \x20 v3: i64 = imul v2, 8\n  v4: ptr = ptradd @g0, v3\n\
                 \x20 v5: f64 = load v4\n  v6: f64 = fmul v5, 2.0\n  store v4, v6\n\
                 \x20 v7: i64 = iadd bb1p0, 1\n  jump bb1(v7)\nbb3:\n  ret\n}}\n"
            )
        }
    }
}

/// The request mix. `Compile` and `Report` exercise the shared cache;
/// `Run` adds simulation time on top.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// `compile` and `report` requests only (cache-bound).
    Compile,
    /// `run` requests only (simulation-bound).
    Run,
    /// 3:1 compile-family to run.
    Mixed,
    /// `run` requests with a wide hint spread: the corpus (and thus the
    /// parse/compile path) stays familiar, but requests are mostly
    /// distinct, so throughput is bounded by how much of the working set
    /// the response-cache tier can actually hold — the mix the gateway's
    /// cache-affinity routing exists for.
    Warm,
}

impl Mix {
    /// Parses `compile`, `run`, `mixed` or `warm`.
    pub fn parse(s: &str) -> Result<Mix, String> {
        match s {
            "compile" => Ok(Mix::Compile),
            "run" => Ok(Mix::Run),
            "mixed" => Ok(Mix::Mixed),
            "warm" => Ok(Mix::Warm),
            other => Err(format!("unknown mix `{other}` (compile, run, mixed or warm)")),
        }
    }

    fn op_for(self, roll: u64) -> &'static str {
        match self {
            Mix::Compile => {
                if roll.is_multiple_of(4) {
                    "report"
                } else {
                    "compile"
                }
            }
            Mix::Run | Mix::Warm => "run",
            Mix::Mixed => match roll % 4 {
                0 => "run",
                1 => "report",
                _ => "compile",
            },
        }
    }
}

/// Load-generation knobs.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Daemon address, e.g. `127.0.0.1:7777`.
    pub addr: String,
    /// Total requests across all clients.
    pub requests: usize,
    /// Concurrent client connections.
    pub clients: usize,
    /// Seed of the request streams (per-client streams derive from it).
    pub seed: u64,
    /// The operation mix.
    pub mix: Mix,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig { addr: String::new(), requests: 200, clients: 4, seed: 42, mix: Mix::Compile }
    }
}

/// What one load run measured.
#[derive(Debug)]
pub struct LoadReport {
    /// Requests sent.
    pub sent: u64,
    /// `"ok": true` responses.
    pub ok: u64,
    /// `"ok": false` responses other than sheds.
    pub failed: u64,
    /// `serve.overloaded` refusals.
    pub shed: u64,
    /// Wall-clock of the whole run in seconds.
    pub wall_s: f64,
    /// Per-request latency distribution.
    pub hist: LogHistogram,
}

impl LoadReport {
    /// Completed (ok) requests per second.
    pub fn throughput_rps(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.ok as f64 / self.wall_s
        } else {
            0.0
        }
    }

    /// Machine-readable form (schema `LOAD_SCHEMA`).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("schema", LOAD_SCHEMA.into()),
            ("sent", self.sent.into()),
            ("ok", self.ok.into()),
            ("failed", self.failed.into()),
            ("shed", self.shed.into()),
            ("wall_s", self.wall_s.into()),
            ("throughput_rps", self.throughput_rps().into()),
            ("latency", self.hist.to_json()),
        ])
    }
}

/// Runs the configured mix against `cfg.addr`, splitting `cfg.requests`
/// across `cfg.clients` connections.
pub fn run_load(cfg: &LoadConfig) -> std::io::Result<LoadReport> {
    let clients = cfg.clients.max(1);
    let started = Instant::now();
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let share = cfg.requests / clients + if c < cfg.requests % clients { 1 } else { 0 };
                scope.spawn(move || client_loop(cfg, c as u64, share))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect::<Vec<_>>()
    });
    let mut report = LoadReport {
        sent: 0,
        ok: 0,
        failed: 0,
        shed: 0,
        wall_s: started.elapsed().as_secs_f64(),
        hist: LogHistogram::new(),
    };
    for r in results {
        let r = r?;
        report.sent += r.sent;
        report.ok += r.ok;
        report.failed += r.failed;
        report.shed += r.shed;
        report.hist.merge(&r.hist);
    }
    Ok(report)
}

/// One client: a private rng stream, serial request/response over one
/// connection.
fn client_loop(cfg: &LoadConfig, client: u64, share: usize) -> std::io::Result<LoadReport> {
    let mut rng = client_rng(cfg.seed, client);
    let stream = TcpStream::connect(&cfg.addr)?;
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut report =
        LoadReport { sent: 0, ok: 0, failed: 0, shed: 0, wall_s: 0.0, hist: LogHistogram::new() };
    // The corpus IR, JSON-escaped once: frame assembly must stay cheap
    // next to the server work being measured.
    let ir_json: Vec<String> =
        (0..CORPUS).map(|v| JsonValue::from(corpus_program(v)).to_json_string()).collect();
    for k in 0..share {
        let (variant, op, hint) = request_parts(cfg.mix, &mut rng);
        let id = client * 1_000_000 + k as u64;
        let line = format!(
            "{{\"id\":{id},\"op\":\"{op}\",\"ir\":{},\"hints\":[{hint}]}}\n",
            ir_json[variant]
        );
        let sent_at = Instant::now();
        writer.write_all(line.as_bytes())?;
        let mut resp = String::new();
        if reader.read_line(&mut resp)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed mid-run",
            ));
        }
        report.hist.record(sent_at.elapsed().as_secs_f64());
        report.sent += 1;
        // Cheap success test: inside any JSON string the quotes are
        // escaped, so the raw bytes `"ok":true` can only be the envelope.
        if resp.contains("\"ok\":true") {
            report.ok += 1;
            continue;
        }
        match dae_trace::json::parse(&resp) {
            Ok(v) => {
                let code = v
                    .get("error")
                    .and_then(|e| e.get("code"))
                    .and_then(JsonValue::as_str)
                    .unwrap_or("");
                // Both the daemon (`serve.overloaded`) and the gateway
                // (`gate.overloaded`) shed with a `.overloaded` code.
                if code.ends_with(".overloaded") {
                    report.shed += 1;
                } else {
                    report.failed += 1;
                }
            }
            Err(_) => report.failed += 1,
        }
    }
    Ok(report)
}

/// One seeded draw: which program, which op, which hint. The live clients
/// and [`request_frame`] consume the rng in this exact order, so a seed
/// names one reproducible workload everywhere.
fn request_parts(mix: Mix, rng: &mut SplitMix64) -> (usize, &'static str, u64) {
    let variant = (rng.next_u64() % CORPUS as u64) as usize;
    let op = mix.op_for(rng.next_u64());
    let hint = match mix {
        // Wide spread: up to 256 hints per program, so requests are
        // mostly distinct and land on the response-cache *capacity*, not
        // on one hot entry.
        Mix::Warm => 8 * (rng.next_u64() % 256),
        _ => 64 + (rng.next_u64() % 4) * 64, // 64, 128, 192 or 256
    };
    (variant, op, hint)
}

/// The per-client request rng: **the** stream split every harness must
/// share. SplitMix64 advances its state by a fixed odd constant per draw,
/// so seeding client `c` at `seed + c * 0x9e37` starts each client on its
/// own arithmetic progression of states — distinct clients never collide,
/// and any harness (the concurrent generator here, the `dae-perf`
/// workloads) that splits with this exact function replays byte-identical
/// per-client request sequences for a given seed. Inlining the formula
/// instead of calling this is how the streams drift apart.
pub fn client_rng(seed: u64, client: u64) -> SplitMix64 {
    SplitMix64::new(seed.wrapping_add(client.wrapping_mul(0x9e37)))
}

/// The `id`s encode client and sequence so responses are traceable in a
/// packet capture; the rng picks the program and the op. Public so other
/// harnesses (`dae-perf`) can replay the identical stream: client
/// `c`'s rng is [`client_rng`]`(seed, c)` and its ids are
/// `c * 1_000_000 + k`.
pub fn request_frame(mix: Mix, rng: &mut SplitMix64, id: u64) -> JsonValue {
    let (variant, op, hint) = request_parts(mix, rng);
    JsonValue::obj([
        ("id", id.into()),
        ("op", op.into()),
        ("ir", corpus_program(variant).into()),
        ("hints", JsonValue::Arr(vec![hint.into()])),
    ])
}

/// Sends a `shutdown` request and waits for the acknowledgement.
pub fn shutdown(addr: &str) -> std::io::Result<()> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    writer.write_all(b"{\"id\":0,\"op\":\"shutdown\"}\n")?;
    let mut resp = String::new();
    reader.read_line(&mut resp)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_programs_all_parse_and_cycle() {
        for v in 0..CORPUS + 2 {
            let text = corpus_program(v);
            let m = dae_ir::parse::parse_module(&text).expect("corpus program parses");
            dae_ir::verify_module(&m).expect("corpus program verifies");
            assert_eq!(m.task_ids().len(), 1);
            assert_eq!(text, corpus_program(v % CORPUS), "corpus cycles");
        }
    }

    #[test]
    fn request_stream_is_deterministic_per_seed() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        let mut c = SplitMix64::new(8);
        let mut differs = false;
        for k in 0..16 {
            let fa = request_frame(Mix::Mixed, &mut a, k).to_json_string();
            let fb = request_frame(Mix::Mixed, &mut b, k).to_json_string();
            let fc = request_frame(Mix::Mixed, &mut c, k).to_json_string();
            assert_eq!(fa, fb, "same seed, same stream");
            differs |= fa != fc;
        }
        assert!(differs, "different seeds diverge");
    }

    #[test]
    fn end_to_end_load_against_an_in_process_server() {
        use crate::server::{Server, ServerConfig};
        let server =
            Server::bind(&ServerConfig { workers: 2, queue_depth: 64, ..Default::default() })
                .unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || server.run());
        let cfg =
            LoadConfig { addr: addr.clone(), requests: 24, clients: 3, seed: 1, mix: Mix::Compile };
        let report = run_load(&cfg).unwrap();
        assert_eq!(report.sent, 24);
        assert_eq!(report.ok, 24, "nothing shed below queue depth, nothing fails");
        assert_eq!(report.hist.count(), 24);
        let v = report.to_json();
        assert_eq!(v.get("schema").unwrap().as_str(), Some(LOAD_SCHEMA));
        assert!(v.get("throughput_rps").unwrap().as_f64().unwrap() > 0.0);
        shutdown(&addr).unwrap();
        handle.join().unwrap().unwrap();
    }
}
