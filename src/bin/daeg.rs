//! `daeg` — the DAE gateway daemon.
//!
//! Fronts a fleet of `daed` backends with the same newline-delimited-JSON
//! protocol the backends speak: consistent-hash routing on the request's
//! cache key, health probing with ejection and re-admission, bounded-load
//! spill, retries with capped exponential backoff, and deadline-budget
//! propagation. `compile`, `report` and `run` are forwarded; `stats` and
//! `health` describe the gateway itself. A `shutdown` request or
//! SIGTERM/SIGINT starts a graceful drain.
//!
//! ```text
//! daeg --backends HOST:PORT,HOST:PORT,... [--addr HOST:PORT]
//!      [--routers N] [--queue-depth N] [--vnodes N] [--inflight-cap N]
//!      [--eject-after N] [--readmit-ms MS] [--probe-ms MS]
//!      [--attempt-timeout-ms MS] [--retries N] [--trace <file>]
//! ```
//!
//! * `--backends` — comma-separated `daed` addresses (required)
//! * `--addr` — bind address (default `127.0.0.1:7780`; port 0 picks an
//!   ephemeral port, printed on the `listening` line)
//! * `--routers` — at most N forwards in flight; a reader with a free slot
//!   forwards its own frame, router threads forward the queued ones
//!   (default 8)
//! * `--queue-depth` — admission-queue capacity; beyond it requests are
//!   shed with `gate.overloaded` (default 128)
//! * `--vnodes` — virtual nodes per backend on the hash ring (default 128)
//! * `--inflight-cap` — per-backend in-flight cap before bounded-load
//!   spill (default 32)
//! * `--eject-after` — consecutive failures before ejection (default 3)
//! * `--readmit-ms` — cooldown before an ejected backend goes half-open
//!   (default 500)
//! * `--probe-ms` — health-probe period; 0 disables probing (default 100)
//! * `--attempt-timeout-ms` — per-attempt forwarding timeout
//!   (default 10000)
//! * `--retries` — extra attempts on another backend after a failure
//!   (default 2)
//! * `--trace` — write a Chrome-trace JSON of `GateRoute`/`BackendEject`
//!   events to this file on drain
//!
//! The first stdout line is machine-parseable:
//! `daeg: listening on 127.0.0.1:34567`.

use dae_repro::gate::{GateConfig, Gateway};
use dae_repro::serve::install_signal_drain;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    config: GateConfig,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut config = GateConfig { addr: "127.0.0.1:7780".to_string(), ..GateConfig::default() };
    let mut trace_out = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{what} needs a value"));
        let parse_u64 = |what: &str, v: String| {
            v.parse::<u64>().map_err(|e| format!("bad value for {what}: {e}"))
        };
        match a.as_str() {
            "--addr" => config.addr = value("--addr")?,
            "--backends" => {
                config.backends = value("--backends")?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
            }
            "--routers" => {
                config.routers = parse_u64("--routers", value("--routers")?)? as usize;
                if config.routers == 0 {
                    return Err("--routers must be at least 1".into());
                }
            }
            "--queue-depth" => {
                config.queue_depth = parse_u64("--queue-depth", value("--queue-depth")?)? as usize;
                if config.queue_depth == 0 {
                    return Err("--queue-depth must be at least 1".into());
                }
            }
            "--vnodes" => {
                config.vnodes = parse_u64("--vnodes", value("--vnodes")?)? as usize;
                if config.vnodes == 0 {
                    return Err("--vnodes must be at least 1".into());
                }
            }
            "--inflight-cap" => {
                config.inflight_cap =
                    parse_u64("--inflight-cap", value("--inflight-cap")?)? as usize;
                if config.inflight_cap == 0 {
                    return Err("--inflight-cap must be at least 1".into());
                }
            }
            "--eject-after" => {
                config.eject_after = parse_u64("--eject-after", value("--eject-after")?)? as u32;
                if config.eject_after == 0 {
                    return Err("--eject-after must be at least 1".into());
                }
            }
            "--readmit-ms" => {
                config.readmit_ms = parse_u64("--readmit-ms", value("--readmit-ms")?)?
            }
            "--probe-ms" => {
                config.probe_interval_ms = parse_u64("--probe-ms", value("--probe-ms")?)?
            }
            "--attempt-timeout-ms" => {
                config.attempt_timeout_ms =
                    parse_u64("--attempt-timeout-ms", value("--attempt-timeout-ms")?)?;
                if config.attempt_timeout_ms == 0 {
                    return Err("--attempt-timeout-ms must be at least 1".into());
                }
            }
            "--retries" => config.max_retries = parse_u64("--retries", value("--retries")?)? as u32,
            "--trace" => {
                trace_out = Some(PathBuf::from(value("--trace")?));
                config.trace = true;
            }
            other => {
                return Err(format!(
                    "unknown argument `{other}`\n\
                     usage: daeg --backends HOST:PORT,... [--addr HOST:PORT] [--routers N] \
                     [--queue-depth N] [--vnodes N] [--inflight-cap N] [--eject-after N] \
                     [--readmit-ms MS] [--probe-ms MS] [--attempt-timeout-ms MS] [--retries N] \
                     [--trace <file>]\n\
                     --routers N: at most N forwards in flight; a reader with a free slot \
                     forwards its own frame"
                ))
            }
        }
    }
    if config.backends.is_empty() {
        return Err("--backends is required (comma-separated daed addresses)".into());
    }
    Ok(Args { config, trace_out })
}

fn main() -> ExitCode {
    match run_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("daeg: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_main() -> Result<(), String> {
    let args = parse_args()?;
    let gateway = Gateway::bind(&args.config)
        .map_err(|e| format!("cannot bind {}: {e}", args.config.addr))?;
    let addr = gateway.local_addr().map_err(|e| e.to_string())?;
    install_signal_drain();
    println!("daeg: listening on {addr}");
    println!(
        "daeg: {} backends ({}), {} routers, queue depth {}",
        args.config.backends.len(),
        args.config.backends.join(", "),
        args.config.routers,
        args.config.queue_depth
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    gateway.run().map_err(|e| format!("gateway failed: {e}"))?;
    if let Some(path) = &args.trace_out {
        use dae_repro::trace::{Recorder, TraceSink as _};
        let events = gateway.trace_events();
        let mut rec = Recorder::new(gateway.trace_lanes());
        for e in events.iter().cloned() {
            rec.record(e);
        }
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        std::fs::write(path, dae_repro::trace::chrome::chrome_trace_json(&rec))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("daeg: {} trace events -> {}", events.len(), path.display());
    }
    println!("daeg: drained, bye");
    Ok(())
}
