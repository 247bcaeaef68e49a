//! `dae-perf` — runs one workload (what the driver of `BENCHMARK.json`
//! invokes), every workload into a result set, or compares two sets.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use dae_perf::metrics::{declared, Decl, Outcome};
use dae_perf::{compare, run_workload, RunOpts};
use dae_trace::json::{parse, JsonValue};

const USAGE: &str = "\
usage: dae-perf --workload W [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
       dae-perf [--seed N] [--runs K] [--seconds S] [--smoke] [--out FILE]
       dae-perf --compare A.json B.json
       dae-perf --workload W [--seed N] --setup-probe

With --workload: runs it and prints its metrics; the last line is the
result object. Without: runs every workload of BENCHMARK.json in a child
process each — K untraced runs on seeds N..N+K and one traced run — and
writes the result set to FILE (default target/perf/set.json). --setup-probe
times a few set-ups of W and prints their seconds: a run of W starts it
between its parts to time set-up in a fresh process.";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    setup_probe: bool,
    runs: u64,
    out: PathBuf,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 42,
        seconds: declared().run_seconds,
        trace: false,
        smoke: false,
        setup_probe: false,
        runs: 1,
        out: PathBuf::from("target/perf/set.json"),
        compare: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a name")?),
            "--seed" => a.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--runs" => a.runs = value("a number")?.parse().map_err(|e| format!("--runs: {e}"))?,
            "--seconds" => {
                a.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
            }
            "--out" => a.out = PathBuf::from(value("a path")?),
            "--smoke" => a.smoke = true,
            "--setup-probe" => a.setup_probe = true,
            "--trace" => {
                // A bare `--trace` means on; the driver passes `0` or `1`.
                a.trace = it.next_if(|v| v == "0" || v == "1").is_none_or(|v| v == "1");
            }
            "--compare" => {
                a.compare =
                    Some((PathBuf::from(value("two files")?), PathBuf::from(value("two files")?)));
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if a.setup_probe && a.workload.is_none() {
        return Err("--setup-probe needs --workload".to_string());
    }
    Ok(a)
}

/// First line of a command's output, or `unknown` (the benchmark's
/// checkout need not be a git repository).
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// What the numbers were measured on and with.
fn environment(a: &Args) -> JsonValue {
    JsonValue::obj([
        ("seed", a.seed.into()),
        ("seconds", a.seconds.into()),
        ("smoke", a.smoke.into()),
        ("nproc", std::thread::available_parallelism().map_or(1, |n| n.get()).into()),
        ("workers", 2usize.into()),
        ("engine", "bytecode".into()),
        ("rustc", tool_line("rustc", &["--version"]).into()),
        ("commit", tool_line("git", &["rev-parse", "HEAD"]).into()),
    ])
}

fn print_outcome(decls: &[Decl], out: &Outcome) {
    for d in decls {
        match out.metrics.get(&d.name) {
            Some(s) if s.reps > 1 => println!(
                "  {:<36} {:>16.6} {:<8} all {} repetitions: median {:.6} q1 {:.6} q3 {:.6}",
                d.name, s.value, d.unit, s.reps, s.median, s.q1, s.q3
            ),
            Some(s) => println!("  {:<36} {:>16.6} {}", d.name, s.value, d.unit),
            None => {}
        }
    }
    for (k, v) in &out.facts {
        println!("  {k} = {}", v.to_json_string());
    }
    println!("  attempted {} failed {}", out.attempted, out.failed);
    print!("{}", out.report);
}

fn opts_of(a: &Args) -> RunOpts {
    RunOpts {
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        smoke: a.smoke,
        out_dir: PathBuf::from("target/perf"),
    }
}

/// What a run of `name` starts between its parts.
fn setup_probe(opts: &RunOpts, name: &str) -> Result<(), String> {
    let times = dae_perf::setup_probe(name, opts)?;
    println!("{}", times.iter().map(f64::to_string).collect::<Vec<_>>().join(" "));
    Ok(())
}

fn run_one(a: &Args, name: &str) -> Result<(), String> {
    println!("dae-perf {name} trace={} {}", u8::from(a.trace), environment(a).to_json_string());
    let out = run_workload(name, &opts_of(a))?;
    let d = declared();
    let decls = if a.trace { &d.per_layer } else { &d.end_to_end };
    let line = out.result_line(decls, !a.trace)?;
    print_outcome(decls, &out);
    println!("{line}");
    Ok(())
}

/// Runs `workload` in a child process and returns its result object.
fn child(a: &Args, workload: &str, seed: u64, trace: bool) -> Result<JsonValue, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()]);
    cmd.args(["--seconds", &a.seconds.to_string(), "--trace", if trace { "1" } else { "0" }]);
    if a.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!("{workload} seed {seed}: {}", String::from_utf8_lossy(&output.stderr)));
    }
    let last = stdout.lines().last().ok_or("child printed nothing")?;
    let mut result = parse(last).map_err(|e| format!("{workload}: {e}"))?;
    if let JsonValue::Obj(pairs) = &mut result {
        pairs.insert(0, ("trace".to_string(), trace.into()));
        pairs.insert(0, ("seed".to_string(), seed.into()));
        pairs.insert(0, ("workload".to_string(), workload.into()));
    }
    if trace {
        // The layer-share table is the traced run's printed product.
        let table: Vec<&str> =
            stdout.lines().skip_while(|l| !l.starts_with("layer shares")).collect();
        println!("{}", table[..table.len().saturating_sub(1)].join("\n"));
    }
    Ok(result)
}

fn run_all(a: &Args) -> Result<(), String> {
    let mut runs = Vec::new();
    for w in &declared().workloads {
        for k in 0..a.runs {
            let r = child(a, w, a.seed + k, false)?;
            println!("{}", r.to_json_string());
            runs.push(r);
        }
        runs.push(child(a, w, a.seed, true)?);
    }
    let set = JsonValue::obj([
        ("schema", "dae-perf-set/1".into()),
        ("env", environment(a)),
        ("runs", JsonValue::Arr(runs)),
    ]);
    if let Some(dir) = a.out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(&a.out, set.to_json_string() + "\n").map_err(|e| e.to_string())?;
    println!("wrote {}", a.out.display());
    Ok(())
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if let Some((x, y)) = &a.compare {
        compare::compare_files(x, y).map(|(table, worse)| {
            print!("{table}");
            if worse {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        })
    } else if cfg!(debug_assertions) && !a.smoke {
        Err("refusing to measure a build with debug assertions; use --release".to_string())
    } else if let Some(name) = &a.workload {
        if a.setup_probe { setup_probe(&opts_of(&a), name) } else { run_one(&a, name) }
            .map(|()| ExitCode::SUCCESS)
    } else {
        run_all(&a).map(|()| ExitCode::SUCCESS)
    };
    result.unwrap_or_else(|msg| {
        eprintln!("dae-perf: {msg}");
        ExitCode::FAILURE
    })
}
