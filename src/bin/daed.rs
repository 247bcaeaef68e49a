//! `daed` — the DAE compile-and-simulate daemon.
//!
//! Accepts untrusted IR text over newline-delimited JSON on a TCP socket
//! and serves `compile`, `report`, `run`, `stats` and `health` requests;
//! a `shutdown` request or SIGTERM/SIGINT starts a graceful drain.
//!
//! ```text
//! daed [--addr HOST:PORT] [--workers N] [--queue-depth N]
//!      [--cache-dir <dir>] [--cache-max-mb <mb>] [--max-global-mb <mb>]
//! ```
//!
//! * `--addr` — bind address (default `127.0.0.1:7777`; port 0 picks an
//!   ephemeral port, printed on the `listening` line)
//! * `--workers` — worker threads executing requests (default 4)
//! * `--queue-depth` — admission-queue capacity; requests beyond it are
//!   shed with `serve.overloaded` (default 64)
//! * `--cache-dir` — persist compiled access phases on disk, shared with
//!   `daec --cache-dir`
//! * `--cache-max-mb` — in-memory artifact-cache byte budget (default 64)
//! * `--max-global-mb` — refuse modules declaring more global data than
//!   this, in MiB (default 256)
//!
//! The daemon keeps no phase profiles: profiles are collected and fed
//! back offline, through `daec --profile-out`/`--profile-in`/`--profile-dir`.
//!
//! The first stdout line is machine-parseable:
//! `daed: listening on 127.0.0.1:34567` — tests and scripts bind port 0
//! and scrape the actual address from it.
//!
//! Try it: `daed --addr 127.0.0.1:7777 &` then
//! `printf '{"id":1,"op":"health"}\n' | nc 127.0.0.1 7777`

use dae_repro::driver::DriverConfig;
use dae_repro::serve::{install_signal_drain, EngineConfig, Server, ServerConfig};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    addr: String,
    workers: usize,
    queue_depth: usize,
    cache_dir: Option<PathBuf>,
    cache_max_mb: usize,
    max_global_mb: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7777".to_string(),
        workers: 4,
        queue_depth: 64,
        cache_dir: None,
        cache_max_mb: 64,
        max_global_mb: 256,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{what} needs a value"));
        match a.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--workers" => {
                args.workers =
                    value("--workers")?.parse().map_err(|e| format!("bad worker count: {e}"))?;
                if args.workers == 0 {
                    return Err("--workers must be at least 1".into());
                }
            }
            "--queue-depth" => {
                args.queue_depth =
                    value("--queue-depth")?.parse().map_err(|e| format!("bad queue depth: {e}"))?;
                if args.queue_depth == 0 {
                    return Err("--queue-depth must be at least 1".into());
                }
            }
            "--cache-dir" => args.cache_dir = Some(PathBuf::from(value("--cache-dir")?)),
            "--cache-max-mb" => {
                args.cache_max_mb = value("--cache-max-mb")?
                    .parse()
                    .map_err(|e| format!("bad cache budget: {e}"))?;
                if args.cache_max_mb == 0 {
                    return Err("--cache-max-mb must be at least 1".into());
                }
            }
            "--max-global-mb" => {
                args.max_global_mb = value("--max-global-mb")?
                    .parse()
                    .map_err(|e| format!("bad global cap: {e}"))?;
                if args.max_global_mb == 0 {
                    return Err("--max-global-mb must be at least 1".into());
                }
            }
            other => {
                return Err(format!(
                    "unknown argument `{other}`\n\
                     usage: daed [--addr HOST:PORT] [--workers N] [--queue-depth N] \
                     [--cache-dir <dir>] [--cache-max-mb <mb>] [--max-global-mb <mb>]"
                ))
            }
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    match run_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("daed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_main() -> Result<(), String> {
    let args = parse_args()?;
    let config = ServerConfig {
        addr: args.addr,
        workers: args.workers,
        queue_depth: args.queue_depth,
        engine: EngineConfig {
            driver: DriverConfig {
                jobs: 1,
                cache_dir: args.cache_dir,
                mem_max_bytes: args.cache_max_mb << 20,
            },
            max_global_bytes: args.max_global_mb << 20,
            ..EngineConfig::default()
        },
    };
    let server = Server::bind(&config).map_err(|e| format!("cannot bind {}: {e}", config.addr))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    install_signal_drain();
    println!("daed: listening on {addr}");
    println!(
        "daed: {} workers, queue depth {}, cache {} MiB{}",
        args.workers,
        args.queue_depth,
        args.cache_max_mb,
        match &config.engine.driver.cache_dir {
            Some(d) => format!(" (+ disk tier at {})", d.display()),
            None => String::new(),
        }
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.run().map_err(|e| format!("serve failed: {e}"))?;
    println!("daed: drained, bye");
    Ok(())
}
