//! `dae-load` — deterministic seeded load generator for a running `daed`
//! or `daeg`.
//!
//! Replays a reproducible request mix (see `dae_serve::load`) against
//! `--addr` and writes a `dae-serve-load/1` report with throughput and
//! latency percentiles. Exits non-zero if any request failed or was shed
//! (pass `--allow-shed` when overload is the point); `serve.overloaded`
//! and `gate.overloaded` both count as shed, so the same invocation
//! drives a daemon or a gateway.
//!
//! ```text
//! dae-load --addr HOST:PORT [--requests N] [--clients N] [--seed S]
//!          [--mix compile|run|mixed|warm] [--out <file>] [--allow-shed]
//! ```
//!
//! The report lands in `target/repro/BENCH_serve_load.json` unless `--out`
//! says otherwise. It is a smoke check, not a benchmark: the repo's
//! performance numbers come from `dae-perf` (`crates/perf`).

use dae_repro::serve::{run_load, LoadConfig, Mix};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: dae-load --addr HOST:PORT [--requests N] [--clients N] [--seed S] \
                     [--mix compile|run|mixed|warm] [--out <file>] [--allow-shed]";

struct Args {
    load: LoadConfig,
    out: PathBuf,
    allow_shed: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut load = LoadConfig::default();
    let mut out = PathBuf::from("target/repro/BENCH_serve_load.json");
    let mut allow_shed = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{what} needs a value"));
        match a.as_str() {
            "--addr" => load.addr = value("--addr")?,
            "--requests" => {
                load.requests =
                    value("--requests")?.parse().map_err(|e| format!("bad request count: {e}"))?
            }
            "--clients" => {
                load.clients =
                    value("--clients")?.parse().map_err(|e| format!("bad client count: {e}"))?;
                if load.clients == 0 {
                    return Err("--clients must be at least 1".into());
                }
            }
            "--seed" => {
                load.seed = value("--seed")?.parse().map_err(|e| format!("bad seed: {e}"))?
            }
            "--mix" => load.mix = Mix::parse(&value("--mix")?)?,
            "--out" => out = PathBuf::from(value("--out")?),
            "--allow-shed" => allow_shed = true,
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if load.addr.is_empty() {
        return Err(format!("--addr is required\n{USAGE}"));
    }
    Ok(Args { load, out, allow_shed })
}

fn main() -> ExitCode {
    match run_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dae-load: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_main() -> Result<(), String> {
    let Args { load, out, allow_shed } = parse_args()?;
    let report = run_load(&load).map_err(|e| format!("load against {} failed: {e}", load.addr))?;
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(&out, report.to_json().to_json_string())
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!(
        "dae-load: {} sent, {} ok, {} failed, {} shed \
         | {:.1} req/s, p50 {:.2} ms, p99 {:.2} ms -> {}",
        report.sent,
        report.ok,
        report.failed,
        report.shed,
        report.throughput_rps(),
        report.hist.quantile_s(0.50) * 1e3,
        report.hist.quantile_s(0.99) * 1e3,
        out.display()
    );
    if report.failed > 0 {
        return Err(format!("{} requests failed", report.failed));
    }
    if report.shed > 0 && !allow_shed {
        return Err(format!("{} requests shed (pass --allow-shed to tolerate)", report.shed));
    }
    Ok(())
}
