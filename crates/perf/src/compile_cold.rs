//! `compile-cold` — the compiler alone, on text.
//!
//! A stream of 63 distinct module texts in seeded order — LU and Cholesky
//! at nine `(n, blk)` each take the polyhedral path, FFT, LBM, LibQ, Cigar
//! and CG at nine sizes each the skeleton path — each taken text → parsed →
//! verified → `Driver::compile` on a driver with a cold in-memory cache
//! and no disk tier → printed. `dae-ir`, `dae-analysis`, `dae-poly`,
//! `dae-core` and `dae-driver` do all the work and the simulator none.
//! One operation is one module; throughput counts task functions.

use std::collections::{BTreeSet, HashMap};
use std::time::Instant;

use dae_core::{transform_module, CompilerOptions};
use dae_driver::{task_key, CompileOutcome, Driver, DriverConfig, Pipeline};
use dae_governor::SplitMix64;
use dae_ir::parse::parse_module;
use dae_ir::{print_module, verify_module, FuncId, Function, Module};
use dae_workloads::{cg, cholesky, cigar, fft, lbm, libq, lu, Workload};

use crate::metrics::{exact_quantile, median, Outcome, Rep, Stat};
use crate::span::Tracer;
use crate::{shuffle, RunOpts};

/// One module of the stream, as a compile service would receive it.
struct Input {
    text: String,
    /// Parameter hints per task function name.
    hints: HashMap<String, Vec<i64>>,
    base: CompilerOptions,
    /// LU and Cholesky: every loop affine, the polyhedral path.
    affine: bool,
}

impl Input {
    fn of(w: &Workload, affine: bool) -> Input {
        let hints =
            w.hints.iter().map(|(f, h)| (w.module.func(*f).name.clone(), h.clone())).collect();
        Input { text: print_module(&w.module), hints, base: w.base_options.clone(), affine }
    }

    fn options(&self) -> impl FnMut(FuncId, &Function) -> CompilerOptions + '_ {
        |_, f| CompilerOptions {
            param_hints: self.hints.get(&f.name).cloned().unwrap_or_default(),
            ..self.base.clone()
        }
    }
}

/// Draws `count` distinct entries of `grid`.
fn draw<T: Copy>(grid: &[T], count: usize, rng: &mut SplitMix64) -> Vec<T> {
    let mut g = grid.to_vec();
    shuffle(&mut g, rng);
    g.truncate(count);
    g
}

/// Draws the sizes, the same in every run.
const SIZES_SEED: u64 = 0x0dae_c01d;

/// The stream: a fixed number of modules of each kind, sizes drawn without
/// replacement. Every run compiles the same modules and the seed decides
/// the order they arrive in: a module's cost follows its size, so seeded
/// sizes made the latency quantiles a property of the seed (the 90th
/// percentile read 1.5 to 2.6 ms over ten seeds).
fn stream(seed: u64, smoke: bool) -> Vec<Input> {
    let mut rng = SplitMix64::new(SIZES_SEED);
    let per_kind = if smoke { 1 } else { 9 };
    // Every grid entry prints a different text: the drawn sizes are the
    // constants and global lengths of the IR, chunk sizes only hints.
    let blocked: Vec<(i64, i64)> =
        [4, 8, 16].iter().flat_map(|&b| (2..=8).map(move |k| (b * k, b))).collect();
    let pow2: Vec<(i64, i64)> = (5..=15).map(|e| (1i64 << e, 1 << (e % 3))).collect();
    let grid4 = |xs: [i64; 4], ys: [i64; 4], c: [i64; 2]| -> Vec<(i64, i64, i64)> {
        xs.iter().flat_map(|&x| ys.map(|y| (x, y, c[((x + y) / 16 % 2) as usize]))).collect()
    };
    let lattice = grid4([16, 32, 48, 64], [16, 32, 48, 64], [8, 16]);
    let states: Vec<(i64, i64)> = (1..=16).map(|k| (512 * k, 128 << (k % 2))).collect();
    let pops = grid4([64, 128, 192, 256], [16, 32, 48, 64], [16, 32]);
    let rows = grid4([128, 256, 384, 512], [4, 8, 12, 16], [32, 64]);
    let mut inputs = Vec::new();
    for (n, b) in draw(&blocked, per_kind, &mut rng) {
        inputs.push(Input::of(&lu::build_sized(n, b), true));
    }
    for (n, b) in draw(&blocked, per_kind, &mut rng) {
        inputs.push(Input::of(&cholesky::build_sized(n, b), true));
    }
    for (n, c) in draw(&pow2, per_kind, &mut rng) {
        inputs.push(Input::of(&fft::build_sized(n, c), false));
    }
    for (w, h, c) in draw(&lattice, per_kind, &mut rng) {
        inputs.push(Input::of(&lbm::build_sized(w, h, c, 1), false));
    }
    for (s, c) in draw(&states, per_kind, &mut rng) {
        inputs.push(Input::of(&libq::build_sized(s, c), false));
    }
    for (p, l, c) in draw(&pops, per_kind, &mut rng) {
        inputs.push(Input::of(&cigar::build_sized(p, l, 16, c), false));
    }
    for (r, z, c) in draw(&rows, per_kind, &mut rng) {
        inputs.push(Input::of(&cg::build_sized(r, z, c, 1), false));
    }
    shuffle(&mut inputs, &mut SplitMix64::new(seed));
    inputs
}

/// A driver with a cold in-memory cache and no disk tier.
fn fresh_driver() -> Driver {
    Driver::new(&DriverConfig { jobs: 1, cache_dir: None, ..DriverConfig::default() })
}

/// One module through the whole pipeline.
struct Compiled {
    printed: String,
    outcome: CompileOutcome,
    wall_s: f64,
}

fn compile_one(
    input: &Input,
    driver: &mut Driver,
    op: u64,
    t: &mut Tracer,
) -> Result<Compiled, String> {
    let t0 = Instant::now();
    t.span("compile.module", op, |t| {
        let mut module =
            t.span("ir.parse", op, |_| parse_module(&input.text)).map_err(|e| e.to_string())?;
        t.span("ir.verify", op, |_| verify_module(&module)).map_err(|e| e.to_string())?;
        let outcome =
            t.span("driver.compile", op, |_| driver.compile(&mut module, input.options()));
        // A disabled tracer has no last span.
        if let Some(parent) = t.last_index() {
            // `start_s` counts from the start of `Driver::compile`.
            for s in &outcome.spans {
                t.reported_child(parent, pass_span_name(s.pass), s.start_s, s.dur_s);
            }
        }
        let printed = t.span("ir.print", op, |_| print_module(&module));
        Ok(Compiled { printed, outcome, wall_s: t0.elapsed().as_secs_f64() })
    })
}

fn pass_span_name(pass: &str) -> &'static str {
    match pass {
        "inline" => "driver.pass.inline",
        "optimize" => "driver.pass.optimize",
        "refine" => "driver.pass.refine",
        "analyze" => "driver.pass.analyze",
        "generate" => "driver.pass.generate",
        "cache" => "driver.cache_lookup",
        _ => "driver.pass.other",
    }
}

/// The whole stream on one driver, in order.
fn compile_stream(
    inputs: &[Input],
    driver: &mut Driver,
    t: &mut Tracer,
) -> Result<Vec<Compiled>, String> {
    inputs.iter().enumerate().map(|(i, input)| compile_one(input, driver, i as u64, t)).collect()
}

fn tasks_of(stream: &[Compiled]) -> usize {
    stream.iter().map(|c| c.outcome.tasks).sum()
}

/// The driver's output must be the text `dae_core::transform_module`
/// produces from the same input.
fn reference_oracle(
    inputs: &[Input],
    compiled: &[Compiled],
    out: &mut Outcome,
) -> Result<(), String> {
    for (input, c) in inputs.iter().zip(compiled) {
        let mut module = parse_module(&input.text).map_err(|e| e.to_string())?;
        transform_module(&mut module, input.options());
        out.check(print_module(&module) == c.printed);
    }
    Ok(())
}

/// Runs the workload.
pub fn run(opts: &RunOpts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let inputs = stream(opts.seed, opts.smoke);
    let distinct: BTreeSet<&str> = inputs.iter().map(|i| i.text.as_str()).collect();
    out.check(distinct.len() == inputs.len());
    out.fact("modules", inputs.len());
    out.fact("text_bytes", inputs.iter().map(|i| i.text.len()).sum::<usize>());
    let first = if opts.trace {
        traced(opts, &inputs, &mut out)?
    } else {
        untraced(opts, &inputs, &mut out)?
    };
    reference_oracle(&inputs, &first, &mut out)?;
    Ok(out)
}

fn untraced(opts: &RunOpts, inputs: &[Input], out: &mut Outcome) -> Result<Vec<Compiled>, String> {
    let started = Instant::now();
    let mut first: Option<Vec<Compiled>> = None;
    // Set-up — generating the stream, creating a driver — is repeated every
    // fifth repetition, so it meets the spells of the host the repetitions
    // meet.
    let (mut reps, mut setup_s) = (Vec::new(), Vec::new());
    while first.is_none() || started.elapsed().as_secs_f64() < opts.seconds {
        if reps.len() % 5 == 0 {
            let t0 = Instant::now();
            std::hint::black_box((stream(opts.seed, opts.smoke), fresh_driver()));
            setup_s.push(t0.elapsed().as_secs_f64());
        }
        let t0 = Instant::now();
        let compiled = compile_stream(inputs, &mut fresh_driver(), &mut Tracer::off())?;
        let ops_per_s = tasks_of(&compiled) as f64 / t0.elapsed().as_secs_f64();
        let mut lat_ms: Vec<f64> = compiled.iter().map(|c| c.wall_s * 1e3).collect();
        reps.push(Rep::new(ops_per_s, &mut lat_ms));
        out.attempted += compiled.len() as u64;
        match &first {
            // Every repetition must print what the first one printed.
            Some(f) => {
                out.failed +=
                    f.iter().zip(&compiled).filter(|(a, b)| a.printed != b.printed).count() as u64
            }
            None => first = Some(compiled),
        }
    }
    out.report_reps(&reps);
    out.set("setup_s", Stat::best_of(&setup_s, false));
    let first = first.expect("at least one repetition");
    out.fact("tasks_per_repetition", tasks_of(&first));
    Ok(first)
}

fn traced(opts: &RunOpts, inputs: &[Input], out: &mut Outcome) -> Result<Vec<Compiled>, String> {
    // Untraced and traced cold streams in turn for a share of the budget;
    // the spans of the last traced one are kept.
    let budget_s = if opts.smoke { 0.0 } else { opts.seconds / 4.0 };
    let started = Instant::now();
    let (mut plain_s, mut traced_s, mut p99_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut tracer, mut driver, mut cold);
    loop {
        let t0 = Instant::now();
        let plain = compile_stream(inputs, &mut fresh_driver(), &mut Tracer::off())?;
        plain_s.push(t0.elapsed().as_secs_f64());
        let mut lat_ms: Vec<f64> = plain.iter().map(|c| c.wall_s * 1e3).collect();
        lat_ms.sort_by(f64::total_cmp);
        p99_ms.push(exact_quantile(&lat_ms, 0.99));
        tracer = Tracer::new(true, Instant::now(), 0);
        driver = fresh_driver();
        let t0 = Instant::now();
        cold = compile_stream(inputs, &mut driver, &mut tracer)?;
        traced_s.push(t0.elapsed().as_secs_f64());
        if started.elapsed().as_secs_f64() >= budget_s {
            break;
        }
    }
    let fastest = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
    out.set_once("trace.overhead_share", fastest(&traced_s) / fastest(&plain_s) - 1.0);
    out.set_once("client.p99_ms", fastest(&p99_ms));
    // The same stream again on the now-warm driver: the lookup path.
    let t0 = Instant::now();
    let warm = tracer.span("compile.warm_replay", 0, |_| {
        compile_stream(inputs, &mut driver, &mut Tracer::off())
    })?;
    let warm_s = t0.elapsed().as_secs_f64();
    out.attempted += 2 * inputs.len() as u64;
    out.failed += cold.iter().zip(&warm).filter(|(a, b)| a.printed != b.printed).count() as u64;

    let dur_s = |name: &str| tracer.durations_s(name);
    let text_bytes: usize = inputs.iter().map(|i| i.text.len()).sum();
    let printed_bytes: usize = cold.iter().map(|c| c.printed.len()).sum();
    out.set_once(
        "ir.parse_ns_per_byte",
        dur_s("ir.parse").iter().sum::<f64>() * 1e9 / text_bytes as f64,
    );
    out.set_once("ir.verify_us_per_module", median(&dur_s("ir.verify")) * 1e6);
    out.set_once(
        "ir.print_ns_per_byte",
        dur_s("ir.print").iter().sum::<f64>() * 1e9 / printed_bytes as f64,
    );
    for pass in Pipeline::standard().pass_names() {
        let total: f64 = cold
            .iter()
            .flat_map(|c| &c.outcome.spans)
            .filter(|s| s.pass == pass)
            .map(|s| s.dur_s)
            .sum();
        out.set_once(&format!("driver.pass_ms.{pass}"), total * 1e3);
    }
    let compile_s = dur_s("driver.compile");
    for (name, affine) in [("affine", true), ("skeleton", false)] {
        let of_kind = || {
            inputs.iter().zip(&cold).zip(&compile_s).filter(move |((i, _), _)| i.affine == affine)
        };
        let tasks: usize = of_kind().map(|((_, c), _)| c.outcome.tasks).sum();
        let secs: f64 = of_kind().map(|(_, s)| s).sum();
        out.set_once(&format!("driver.cold_ms_per_task.{name}"), secs * 1e3 / tasks.max(1) as f64);
    }
    let tasks = tasks_of(&cold);
    out.set_once("driver.warm_us_per_task", warm_s * 1e6 / tasks as f64);
    let fingerprint = Pipeline::standard().fingerprint();
    let parsed: Vec<Module> =
        inputs.iter().map(|i| parse_module(&i.text).expect("parsed before")).collect();
    let key_ns = crate::probe::ns_per_unit((opts.seconds / 8.0).min(0.5), || {
        for (input, module) in inputs.iter().zip(&parsed) {
            let mut options = input.options();
            for task in module.task_ids() {
                let o = options(task, module.func(task));
                std::hint::black_box(task_key(module, task, &o, fingerprint));
            }
        }
        tasks as u64
    });
    out.set_once("driver.key_us_per_task", key_ns / 1e3);
    let sum = |f: &dyn Fn(&CompileOutcome) -> usize| {
        cold.iter().chain(&warm).map(|c| f(&c.outcome)).sum::<usize>() as f64
    };
    out.set_once("driver.tasks", sum(&|o| o.tasks));
    out.set_once("driver.generated", sum(&|o| o.generated));
    out.set_once("driver.refused", sum(&|o| o.refused));
    out.set_once("driver.misses", sum(&|o| o.cache.misses as usize));
    out.set_once("driver.mem_hits", sum(&|o| o.cache.mem_hits as usize));
    crate::finish_trace("compile-cold", &tracer, opts, out)?;
    Ok(cold)
}
