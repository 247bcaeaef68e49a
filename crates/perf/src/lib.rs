//! # dae-perf — the repository's benchmark
//!
//! Five workloads, each stressing a different set of layers, measured from
//! outside: the benchmark times calls into the layers' public functions
//! and reads their public outputs. An untraced run reports the end-to-end
//! metrics of `BENCHMARK.json`; a traced run records spans around each
//! public call, prints a layer-share table and reports the per-layer
//! metrics. See `README.md` in this crate for why each workload exists and
//! which end-to-end metric each layer metric should move.

#![warn(missing_docs)]

pub mod compare;
pub mod compile_cold;
pub mod metrics;
pub mod probe;
pub mod serve;
pub mod sim_corpus;
pub mod span;

use std::path::PathBuf;
use std::process::Command;

use dae_governor::SplitMix64;

pub use metrics::{declared, Outcome, Stat};

/// How one run was asked to measure.
#[derive(Clone, Debug)]
pub struct RunOpts {
    /// Seed of every draw the workload makes.
    pub seed: u64,
    /// Seconds the run measures for.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Shrink inputs and windows so every workload finishes in about a
    /// second (the crate's own test).
    pub smoke: bool,
    /// Where a traced run writes its Chrome-trace file (`target/perf`).
    pub out_dir: PathBuf,
}

impl RunOpts {
    /// `n` repetitions of something, one at smoke size.
    pub fn reps(&self, n: usize) -> usize {
        if self.smoke {
            1
        } else {
            n
        }
    }
}

/// Runs the workload named `name`.
///
/// # Errors
///
/// Returns a message when the name is unknown or the workload could not
/// run at all; failed operations inside a run are counted in the outcome.
pub fn run_workload(name: &str, opts: &RunOpts) -> Result<Outcome, String> {
    let mut out = match name {
        "sim-corpus" => sim_corpus::run(opts),
        "compile-cold" => compile_cold::run(opts),
        "serve-hit" => serve::run(serve::Kind::Hit, opts),
        "serve-miss" => serve::run(serve::Kind::Miss, opts),
        "gate-fleet" => serve::run(serve::Kind::Gate, opts),
        other => Err(format!("unknown workload `{other}`")),
    }?;
    if !opts.trace {
        out.set_once("peak_rss_mb", peak_rss_mb()?);
    }
    Ok(out)
}

/// What `dae-perf --workload NAME --seed N --setup-probe` measures: the
/// seconds each of a few set-ups of the workload took in that process, the
/// first ones paying for a cold binary.
///
/// # Errors
///
/// Names a workload that has no probe (`compile-cold` times its set-up
/// itself), or reports a set-up that failed.
pub fn setup_probe(name: &str, opts: &RunOpts) -> Result<Vec<f64>, String> {
    match name {
        "sim-corpus" => Ok(sim_corpus::setup_probe()),
        "serve-hit" => serve::setup_probe(serve::Kind::Hit, opts),
        "serve-miss" => serve::setup_probe(serve::Kind::Miss, opts),
        "gate-fleet" => serve::setup_probe(serve::Kind::Gate, opts),
        other => Err(format!("workload `{other}` has no set-up probe")),
    }
}

/// Set-up times of workload `name` from a fresh process. A workload starts
/// one between the parts of its run, so that set-up meets the spells of the
/// host the run meets, each time in the state a user's process has. The
/// process is this binary again, so a run that is not at smoke size must be
/// `dae-perf`'s.
fn probe_setups(name: &str, opts: &RunOpts) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", name, "--seed", &opts.seed.to_string(), "--setup-probe"])
        .output()
        .map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!("set-up probe: {}", String::from_utf8_lossy(&output.stderr)));
    }
    let times: Result<Vec<f64>, _> =
        String::from_utf8_lossy(&output.stdout).split_whitespace().map(str::parse).collect();
    times.map_err(|e| format!("set-up probe: {e}"))
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Fisher–Yates shuffle driven by the run's seeded stream.
pub fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
}

/// Client connections of the hit workloads: `min(2, nproc)`. `serve-miss`
/// opens one; every `daed` has 2 workers.
pub fn clients() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(2)
}

/// Ends a traced run: writes the spans as Chrome-trace JSON under the
/// run's output directory and queues the layer-share table for printing.
fn finish_trace(
    workload: &str,
    tracer: &span::Tracer,
    opts: &RunOpts,
    out: &mut Outcome,
) -> Result<(), String> {
    let path = opts.out_dir.join(format!("{workload}.trace.json"));
    tracer.write_chrome(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    out.fact("trace_file", path.display().to_string());
    out.fact("spans", tracer.len());
    out.report.push_str(&tracer.share_table(workload));
    Ok(())
}
