//! `daec` — command-line driver for the DAE access-phase compiler.
//!
//! Reads a module in the textual IR format, generates an access phase for
//! every `task fn`, and prints the transformed module (or a report).
//!
//! ```text
//! daec <file.dae> [--report] [--run] [--policy <spec>] [--hints a,b,c]
//!      [--jobs N] [--cache-dir <dir>] [--cache-max-mb <mb>]
//!      [--no-polyhedral]
//!      [--profile-in <file>] [--profile-out <file>] [--profile-dir <dir>]
//!      [--trace-out <file>]
//! ```
//!
//! * `--report` — print per-task strategy/statistics instead of IR
//! * `--jobs` — compile tasks on N worker threads (default 1). The output
//!   module is bit-identical at any job count.
//! * `--cache-dir` — persist compiled access phases in `<dir>`; warm
//!   recompiles of unchanged tasks skip the polyhedral analysis entirely
//! * `--cache-max-mb` — byte budget (approximate, in MiB) of the in-memory
//!   artifact cache tier (default 64)
//! * `--run` — additionally execute every task (coupled vs decoupled) and
//!   report time/energy/EDP under the paper's machine model
//! * `--policy` — frequency policy for the decoupled runs (`--policy help`
//!   lists every spec; default `dae-optimal`). `governed`,
//!   `governed:heuristic` and `governed:bandit[:<seed>]` choose frequencies
//!   online with the dae-governor
//! * `--hints` — representative parameter values for profitability counts
//!   (applied to every task)
//! * `--profile-in` — load a phase-profile document and compile through
//!   the profile-guided `refine` stage; with `--policy governed:bandit`
//!   the profiles also warm-start the bandit's per-class priors
//! * `--profile-out` — run every task once after compiling and write the
//!   collected phase profiles to `<file>` (merging with `--profile-in`)
//! * `--profile-dir` — persistent per-record profile store: loads every
//!   record before compiling and writes collected records through
//! * `--trace-out` — run every task once (decoupled where possible, under
//!   the selected `--policy`) with event tracing on and write a Chrome
//!   trace (open in <https://ui.perfetto.dev> or `chrome://tracing`) to
//!   `<file>`; with `--profile-out`/`--profile-dir` the same run also
//!   collects the profiles (the module is simulated once)
//!
//! Try it on the bundled examples: `cargo run --bin daec -- examples/ir/stream.dae --report --run`

use dae_repro::compiler::{CompilerOptions, Strategy};
use dae_repro::driver::{emit_spans, Driver, DriverConfig};
use dae_repro::governor::{BanditConfig, BanditEdp, GovernorKind, TaskClass};
use dae_repro::ir::{parse::parse_module, print_module, verify_module, CodedError};
use dae_repro::pgo::{store::DEFAULT_MAX_RECORDS, ProfileCollector, ProfileStore};
use dae_repro::runtime::{
    module_instances, run_workload, run_workload_with, FreqPolicy, RunHooks, RuntimeConfig,
    TaskInstance,
};
use dae_repro::trace::{chrome, json::JsonValue, Recorder, TraceSink};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    file: String,
    report: bool,
    run: bool,
    hints: Vec<i64>,
    opts: CompilerOptions,
    policy: FreqPolicy,
    trace_out: Option<String>,
    jobs: usize,
    cache_dir: Option<PathBuf>,
    cache_max_mb: usize,
    profile_in: Option<String>,
    profile_out: Option<String>,
    profile_dir: Option<PathBuf>,
}

/// `Ok(None)` means the invocation was fully handled (e.g. `--policy help`).
fn parse_args() -> Result<Option<Args>, String> {
    let mut file = None;
    let mut report = false;
    let mut run = false;
    let mut hints = Vec::new();
    let mut opts = CompilerOptions::default();
    let mut policy = FreqPolicy::DaeOptimal;
    let mut trace_out = None;
    let mut jobs = 1usize;
    let mut cache_dir = None;
    let mut cache_max_mb = 64usize;
    let mut profile_in = None;
    let mut profile_out = None;
    let mut profile_dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--report" => report = true,
            "--run" => run = true,
            "--policy" => {
                let spec = it.next().ok_or("--policy needs a value (try --policy help)")?;
                if spec == "help" {
                    println!("{}", FreqPolicy::help());
                    return Ok(None);
                }
                policy = FreqPolicy::parse(&spec, &RuntimeConfig::paper_default().table)?;
            }
            "--hints" => {
                let v = it.next().ok_or("--hints needs a value")?;
                hints = v
                    .split(',')
                    .map(|s| s.trim().parse::<i64>().map_err(|e| format!("bad hint: {e}")))
                    .collect::<Result<_, _>>()?;
            }
            "--trace-out" => trace_out = Some(it.next().ok_or("--trace-out needs a path")?),
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                jobs = v.parse::<usize>().map_err(|e| format!("bad job count: {e}"))?;
                if jobs == 0 {
                    return Err("--jobs must be at least 1".into());
                }
            }
            "--cache-dir" => {
                cache_dir = Some(PathBuf::from(it.next().ok_or("--cache-dir needs a path")?));
            }
            "--cache-max-mb" => {
                let v = it.next().ok_or("--cache-max-mb needs a value")?;
                cache_max_mb = v.parse::<usize>().map_err(|e| format!("bad cache budget: {e}"))?;
                if cache_max_mb == 0 {
                    return Err("--cache-max-mb must be at least 1".into());
                }
            }
            "--profile-in" => {
                profile_in = Some(it.next().ok_or("--profile-in needs a path")?);
            }
            "--profile-out" => {
                profile_out = Some(it.next().ok_or("--profile-out needs a path")?);
            }
            "--profile-dir" => {
                profile_dir = Some(PathBuf::from(it.next().ok_or("--profile-dir needs a path")?));
            }
            "--no-polyhedral" => opts.enable_polyhedral = false,
            other if !other.starts_with('-') && file.is_none() => file = Some(other.to_string()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Some(Args {
        file: file.ok_or(
            "usage: daec <file.dae> [--report] [--run] [--policy <spec>] [--hints a,b,c] [--trace-out <file>]",
        )?,
        report,
        run,
        hints,
        opts,
        policy,
        trace_out,
        jobs,
        cache_dir,
        cache_max_mb,
        profile_in,
        profile_out,
        profile_dir,
    }))
}

fn main() -> ExitCode {
    match run_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("daec: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_main() -> Result<(), String> {
    let args = match parse_args()? {
        Some(args) => args,
        None => return Ok(()),
    };
    let text = std::fs::read_to_string(&args.file)
        .map_err(|e| format!("cannot read {}: {e}", args.file))?;
    let mut module = parse_module(&text).map_err(|e| e.to_string())?;
    verify_module(&module).map_err(|e| e.to_string())?;

    let tasks = module.task_ids();
    if tasks.is_empty() {
        return Err("module contains no `task fn`".into());
    }

    // Profile store: `--profile-dir` opens the persistent per-record
    // store; `--profile-in`/`--profile-out` alone work on an in-memory
    // store loaded from / saved to a single document. A hostile profile
    // file fails with its dotted `pgo.*` code — it never panics.
    let mut store = match &args.profile_dir {
        Some(dir) => Some(
            ProfileStore::open_dir(dir, DEFAULT_MAX_RECORDS)
                .map_err(|e| format!("{}: {e}", e.code()))?,
        ),
        None if args.profile_in.is_some() || args.profile_out.is_some() => {
            Some(ProfileStore::new())
        }
        None => None,
    };
    if let (Some(store), Some(path)) = (store.as_mut(), &args.profile_in) {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("{}: cannot read {path}: {e}", dae_repro::pgo::codes::IO))?;
        store.merge_document(&text).map_err(|e| format!("{}: {e}", e.code()))?;
    }

    let mut driver = Driver::new(&DriverConfig {
        jobs: args.jobs,
        cache_dir: args.cache_dir.clone(),
        mem_max_bytes: args.cache_max_mb << 20,
    });
    if let Some(store) = &store {
        driver.set_profiles(store.snapshot());
    }
    let outcome =
        driver.compile(&mut module, |_, f| args.opts.clone().with_hints_for(f, &args.hints));
    let map = &outcome.map;
    verify_module(&module).map_err(|e| e.to_string())?;

    if args.report {
        println!("{:<20} {:<12} detail", "task", "strategy");
        for task in &tasks {
            let name = &module.func(*task).name;
            match map.strategy_of.get(task) {
                Some(Strategy::Polyhedral(s)) => println!(
                    "{name:<20} {:<12} NOrig={} NconvUn={} classes={} nests={} depth {}→{}",
                    "polyhedral",
                    s.n_orig,
                    s.n_conv_un,
                    s.classes,
                    s.nests,
                    s.orig_depth,
                    s.gen_depth
                ),
                Some(Strategy::Skeleton) => {
                    let info = &map.info_of[task];
                    println!(
                        "{name:<20} {:<12} affine loops {}/{}, {} loads ({} non-affine)",
                        "skeleton",
                        info.loops_affine,
                        info.loops_total,
                        info.total_loads,
                        info.non_affine_loads
                    );
                }
                None => println!("{name:<20} {:<12} {}", "refused", map.refused[task]),
            }
        }
        let c = &outcome.cache;
        println!(
            "compile: {} tasks, {} generated, {} refused, {} from cache \
             (mem {} / disk {} / miss {})",
            outcome.tasks,
            outcome.generated,
            outcome.refused,
            outcome.from_cache,
            c.mem_hits,
            c.disk_hits,
            c.misses
        );
    } else {
        print!("{}", print_module(&module));
    }

    // One run of the whole module — every task fn as one instance,
    // decoupled where an access phase was generated, under the selected
    // policy — when profiles are collected (merged into the store under
    // each task's *base* compile key, so the next compile finds them
    // regardless of refinement) or a trace is written. The collector is a
    // trace sink; with a trace written too, it reads the recorded events
    // afterwards, so one run serves both.
    let insts = module_instances(&module, &tasks, &args.hints, |t| map.access(t));
    let cfg = RuntimeConfig::paper_default().with_policy(args.policy);
    let collecting = args.profile_out.is_some() || args.profile_dir.is_some();
    let mut col = collecting.then(ProfileCollector::new);
    let mut traced = None;
    if col.is_some() || args.trace_out.is_some() {
        let mut rec = args.trace_out.as_ref().map(|_| Recorder::new(cfg.cores));
        if let Some(rec) = rec.as_mut() {
            emit_spans(&outcome.spans, rec.cores(), rec);
        }
        let sink = match rec.as_mut() {
            Some(rec) => Some(rec as &mut dyn TraceSink),
            None => col.as_mut().map(|c| c as &mut dyn TraceSink),
        };
        let hooks = RunHooks { sink, ..Default::default() };
        let report = run_workload_with(&module, &insts, &cfg, hooks).map_err(|e| e.to_string())?;
        if let (Some(rec), Some(col)) = (&rec, col.as_mut()) {
            rec.events().iter().for_each(|e| col.record(e.clone()));
        }
        traced = rec.map(|rec| (rec, report));
    }
    if let (Some(st), Some(col)) = (store.as_mut(), col.as_mut()) {
        for (key, p) in col.drain_keyed(|f| outcome.keys.get(&f).copied()) {
            st.merge_record(key, &p);
        }
        if let Some(path) = &args.profile_out {
            st.save_file(path).map_err(|e| format!("{}: {e}", e.code()))?;
        }
        let s = st.stats();
        println!(
            "profile: {} records resident ({} merged, {} skipped, {} written)",
            s.resident, s.merged, s.skipped_records, s.written
        );
    }

    if args.run {
        println!();
        let base = RuntimeConfig::paper_default();
        let plabel = cfg.policy.label(&cfg.table);
        // Warm-started bandit: measured phase boundedness from the
        // profile store seeds the per-class priors, so the governor
        // starts greedy near the measured optimum instead of sweeping.
        let mut seeded: Option<BanditEdp> = match (&args.policy, store.as_mut()) {
            (FreqPolicy::Governed(GovernorKind::Bandit { seed }), Some(st)) if !st.is_empty() => {
                let mut gov = BanditEdp::new(
                    base.table.clone(),
                    BanditConfig { seed: *seed, ..Default::default() },
                );
                let mut any = false;
                for inst in &insts {
                    let p = match outcome.keys.get(&inst.func).and_then(|k| st.get(*k)) {
                        Some(p) if p.runs > 0 => p,
                        _ => continue,
                    };
                    let access_mb = (p.access.instrs > 0).then(|| {
                        (p.access.mem_bound_ppm_sum as f64 / p.runs as f64 / 1e6).clamp(0.0, 1.0)
                    });
                    gov.seed_prior(
                        TaskClass::of(inst.func, &inst.args),
                        access_mb,
                        p.execute_mem_bound(),
                    );
                    any = true;
                }
                any.then_some(gov)
            }
            _ => None,
        };
        for inst in &insts {
            let name = &module.func(inst.func).name;
            let cae = [TaskInstance::coupled(inst.func, inst.args.clone())];
            let r1 = run_workload(&module, &cae, &base).map_err(|e| e.to_string())?;
            print!("{name:<20} CAE@fmax {:>9.3}us {:>9.3}uJ", r1.time_s * 1e6, r1.energy_j * 1e6);
            if inst.access.is_some() {
                let dae = std::slice::from_ref(inst);
                let hooks =
                    RunHooks { governor: seeded.as_mut().map(|g| g as _), ..Default::default() };
                let r2 = run_workload_with(&module, dae, &cfg, hooks).map_err(|e| e.to_string())?;
                println!(
                    "   DAE {plabel} {:>9.3}us {:>9.3}uJ   EDP {:+.1}%",
                    r2.time_s * 1e6,
                    r2.energy_j * 1e6,
                    (r2.edp() / r1.edp() - 1.0) * 100.0
                );
            } else {
                println!("   (no access phase)");
            }
        }
    }

    if let (Some(path), Some((rec, report))) = (&args.trace_out, traced) {
        let mut report = report.to_json();
        if let JsonValue::Obj(pairs) = &mut report {
            pairs.push(("compile".to_string(), outcome.counts_json()));
        }
        let meta: Vec<(String, JsonValue)> = vec![
            ("source".to_string(), args.file.as_str().into()),
            ("policy".to_string(), cfg.policy.label(&cfg.table).as_str().into()),
            ("report".to_string(), report),
        ];
        let text = chrome::chrome_trace_json_with(&rec, meta);
        std::fs::write(path, &text).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!(
            "trace: {} events over {} cores -> {path} [chrome trace (open in ui.perfetto.dev)]",
            rec.len(),
            rec.cores()
        );
    }
    Ok(())
}
