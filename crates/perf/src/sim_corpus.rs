//! `sim-corpus` — the paper pipeline in-process.
//!
//! The seven benchmarks at full size, compiled in set-up, then per pass
//! each benchmark's CAE task list under `coupled-max` and its Auto-DAE
//! list under `dae-optimal` (500 ns DVFS latency). Nearly all host time is
//! the dispatch loop, `dae-mem` and the timing/power model; compilation,
//! JSON and sockets are absent. One operation is one `run_workload` call;
//! throughput counts 10⁶ simulated steps as one unit of work.

use std::time::Instant;

use dae_mem::{CoreCaches, SharedLlc};
use dae_runtime::{run_workload, EngineKind, FreqPolicy, RunReport, RuntimeConfig, TaskInstance};
use dae_sim::{CachePort, LowerSpan, PhaseTrace};
use dae_workloads::{all_benchmarks, all_benchmarks_small, Variant, Workload};

use crate::metrics::{exact_quantile, geomean, median, Outcome, Stat};
use crate::probe::{self, bytecode_machine, steps};
use crate::span::Tracer;
use crate::{probe_setups, RunOpts};

/// Repetitions of each timed piece of a traced run.
const TRACED_REPS: usize = 2;
/// Set-ups one probe process times. The first two pay for a cold binary
/// and an allocator that has not seen the sizes yet; from the third on
/// they cost the same.
const SETUPS_PER_PROBE: usize = 4;

struct Bench {
    w: Workload,
    cae: Vec<TaskInstance>,
    auto: Vec<TaskInstance>,
}

fn setup(smoke: bool) -> Vec<Bench> {
    let workloads = if smoke { all_benchmarks_small() } else { all_benchmarks() };
    workloads
        .into_iter()
        .map(|mut w| {
            w.compile_auto();
            let (cae, auto) = (w.tasks(Variant::Cae), w.tasks(Variant::AutoDae));
            Bench { w, cae, auto }
        })
        .collect()
}

/// The seconds each of a few full-size set-ups took in this process, one
/// corpus dropped before the next is built.
pub fn setup_probe() -> Vec<f64> {
    (0..SETUPS_PER_PROBE)
        .map(|_| {
            let t0 = Instant::now();
            let corpus = setup(false);
            let s = t0.elapsed().as_secs_f64();
            drop(corpus);
            s
        })
        .collect()
}

/// The two configurations of Fig. 3's headline, engine pinned.
fn configs() -> (RuntimeConfig, RuntimeConfig) {
    let base = RuntimeConfig::paper_default().with_engine(EngineKind::Bytecode);
    (base.clone(), base.with_policy(FreqPolicy::DaeOptimal))
}

fn report_steps(r: &RunReport) -> u64 {
    steps(&r.access_trace) + steps(&r.execute_trace)
}

/// One benchmark's two simulated runs in one pass.
struct BenchRun {
    cae: RunReport,
    auto: RunReport,
    cae_wall_s: f64,
    auto_wall_s: f64,
}

/// Runs every benchmark once under both configurations, in corpus order.
fn pass(corpus: &[Bench], tracer: &mut Tracer) -> Result<Vec<BenchRun>, String> {
    let (cae_cfg, auto_cfg) = configs();
    let mut runs = Vec::with_capacity(corpus.len());
    for (op, b) in corpus.iter().enumerate() {
        let timed = |tasks: &[TaskInstance], cfg: &RuntimeConfig, tracer: &mut Tracer| {
            let t0 = Instant::now();
            let r = tracer
                .span("runtime.run_workload", op as u64, |_| run_workload(&b.w.module, tasks, cfg));
            r.map(|r| (r, t0.elapsed().as_secs_f64())).map_err(|e| format!("{}: {e}", b.w.name))
        };
        let (cae, cae_wall_s) = timed(&b.cae, &cae_cfg, tracer)?;
        let (auto, auto_wall_s) = timed(&b.auto, &auto_cfg, tracer)?;
        runs.push(BenchRun { cae, auto, cae_wall_s, auto_wall_s });
    }
    Ok(runs)
}

/// Fig. 3's headline over one pass: geomean Auto-DAE / CAE of EDP and of
/// simulated makespan.
fn headline(runs: &[BenchRun]) -> (f64, f64) {
    let edp: Vec<f64> = runs.iter().map(|r| r.auto.edp() / r.cae.edp()).collect();
    let time: Vec<f64> = runs.iter().map(|r| r.auto.time_s / r.cae.time_s).collect();
    (geomean(&edp), geomean(&time))
}

/// The simulated result of a pass, bit for bit.
fn fingerprint(runs: &[BenchRun]) -> Vec<u64> {
    runs.iter()
        .flat_map(|r| {
            [&r.cae, &r.auto]
                .map(|x| [x.time_s.to_bits(), x.energy_j.to_bits(), report_steps(x)])
                .concat()
        })
        .collect()
}

/// A task list run straight through `Machine::run`, with no runtime
/// around it: no scheduling, timing model, power model or report.
struct RawRun {
    memory: Vec<u64>,
    trace: PhaseTrace,
    wall_s: f64,
    lowered: Vec<LowerSpan>,
}

fn raw_run(
    b: &Bench,
    tasks: &[TaskInstance],
    tracer: &mut Tracer,
    op: u64,
) -> Result<RawRun, String> {
    let module = &b.w.module;
    let cfg = RuntimeConfig::paper_default();
    let mut llc = SharedLlc::new(cfg.hierarchy.llc);
    let mut cores: Vec<CoreCaches> =
        (0..cfg.cores).map(|_| CoreCaches::new(&cfg.hierarchy)).collect();
    let mut machine = bytecode_machine(module);
    let mut trace = PhaseTrace::default();
    // Epoch by epoch, tasks dealt round-robin over the cores' caches: the
    // scheduler's initial distribution, without its work stealing.
    let mut order: Vec<&TaskInstance> = tasks.iter().collect();
    order.sort_by_key(|t| t.epoch);
    let t0 = Instant::now();
    tracer.span("sim.machine_run", op, |_| {
        let (mut epoch, mut slot) = (None, 0);
        for t in order {
            if epoch != Some(t.epoch) {
                (epoch, slot) = (Some(t.epoch), 0);
            }
            for f in t.access.into_iter().chain([t.func]) {
                let mut port = CachePort { core: &mut cores[slot % cfg.cores], llc: &mut llc };
                machine.run(f, &t.args, &mut port, &mut trace).map_err(|e| e.to_string())?;
            }
            slot += 1;
        }
        Ok::<(), String>(())
    })?;
    let wall_s = t0.elapsed().as_secs_f64();
    let mut memory = Vec::new();
    for (g, data) in module.globals() {
        let base = machine.memory.global_addr(g);
        memory.extend((0..data.len).map(|k| machine.memory.read_u64(base + k * 8)));
    }
    Ok(RawRun { memory, trace, wall_s, lowered: machine.take_lower_spans() })
}

/// Output oracles on the reduced-size corpus: an access phase never
/// changes the program's result, and the bytecode engine reports exactly
/// what the tree-walking reference does.
fn small_corpus_oracles(out: &mut Outcome) -> Result<(), String> {
    let (cae_cfg, auto_cfg) = configs();
    for b in setup(true) {
        let mut off = Tracer::off();
        let cae = raw_run(&b, &b.cae, &mut off, 0)?;
        let auto = raw_run(&b, &b.auto, &mut off, 0)?;
        out.check(cae.memory == auto.memory);
        for (tasks, cfg) in [(&b.cae, &cae_cfg), (&b.auto, &auto_cfg)] {
            let tree = cfg.clone().with_engine(EngineKind::Tree);
            let a = run_workload(&b.w.module, tasks, cfg).map_err(|e| e.to_string())?;
            let t = run_workload(&b.w.module, tasks, &tree).map_err(|e| e.to_string())?;
            out.check(a.to_json_string() == t.to_json_string());
        }
    }
    Ok(())
}

/// Runs the workload.
pub fn run(opts: &RunOpts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // The corpus is the paper's and a pass visits it in its own order: the
    // seed changes nothing here. A seeded order decided which freed blocks
    // the allocator still held when a benchmark started, and with that its
    // peak memory (68.6, 76.6 or 79.5 MiB) and the wall time of the two
    // longest operations (375–389 or 400–411 ms).
    if opts.trace {
        traced(opts, &mut out)?;
    } else {
        untraced(opts, &mut out)?;
    }
    small_corpus_oracles(&mut out)?;
    Ok(out)
}

fn untraced(opts: &RunOpts, out: &mut Outcome) -> Result<(), String> {
    // The run's own set-up, then more of them between the passes, so they
    // meet the spells of the host the passes meet — each in a process of
    // its own. Rebuilt in this process, the corpus cost 50, 62 or 80 ms,
    // flat within a series, depending on which freed blocks the allocator
    // had kept after the pass before. A fresh process has the state a
    // user's has.
    let t0 = Instant::now();
    let corpus = setup(opts.smoke);
    let mut setup_s = vec![t0.elapsed().as_secs_f64()];

    // Passes are whole: stop when the next one would overrun the budget.
    // The first pass's reports are kept, of the others the wall times.
    let started = Instant::now();
    let first = pass(&corpus, &mut Tracer::off())?;
    let mut longest = started.elapsed().as_secs_f64();
    let walls_of = |p: &[BenchRun]| -> Vec<f64> {
        p.iter().flat_map(|r| [r.cae_wall_s, r.auto_wall_s]).collect()
    };
    let mut walls = vec![walls_of(&first)];
    out.attempted += 2 * first.len() as u64;
    while started.elapsed().as_secs_f64() + longest <= opts.seconds {
        if !opts.smoke {
            setup_s.extend(probe_setups("sim-corpus", opts)?);
        }
        let t0 = Instant::now();
        let p = pass(&corpus, &mut Tracer::off())?;
        longest = longest.max(t0.elapsed().as_secs_f64());
        out.attempted += 2 * p.len() as u64;
        out.failed += u64::from(fingerprint(&p) != fingerprint(&first));
        walls.push(walls_of(&p));
    }
    out.set("setup_s", Stat::best_of(&setup_s, false));

    // A pass repeats each of the 14 operations once, so there are fewer
    // than ten repetitions of each: an operation's best tenth is its
    // fastest repetition.
    let fastest: Vec<f64> = (0..2 * first.len())
        .map(|op| walls.iter().map(|w| w[op]).fold(f64::INFINITY, f64::min))
        .collect();
    let msteps: Vec<f64> =
        first.iter().map(|r| (report_steps(&r.cae) + report_steps(&r.auto)) as f64 / 1e6).collect();
    let rate = |w: &[f64]| -> Vec<f64> {
        msteps.iter().enumerate().map(|(i, m)| m / (w[2 * i] + w[2 * i + 1])).collect()
    };
    let quantile_ms = |w: &[f64], q: f64| {
        let mut ms: Vec<f64> = w.iter().map(|s| s * 1e3).collect();
        ms.sort_by(f64::total_cmp);
        exact_quantile(&ms, q)
    };
    // Beside each value, the same quantity pass by pass.
    let per_pass = |f: &dyn Fn(&[f64]) -> f64| walls.iter().map(|w| f(w)).collect::<Vec<_>>();
    let per_bench = rate(&fastest);
    out.set("ops_per_s", Stat::of(geomean(&per_bench), &per_pass(&|w| geomean(&rate(w)))));
    out.set("p50_ms", Stat::of(quantile_ms(&fastest, 0.50), &per_pass(&|w| quantile_ms(w, 0.50))));
    out.set("p90_ms", Stat::of(quantile_ms(&fastest, 0.90), &per_pass(&|w| quantile_ms(w, 0.90))));
    out.fact("p99_ms", quantile_ms(&fastest, 0.99));
    let (edp, time) = headline(&first);
    out.fact("edp_auto_vs_cae", edp);
    out.fact("time_auto_vs_cae", time);
    out.fact("repetitions", walls.len());
    out.fact("ops_per_repetition", 2 * corpus.len());
    for (b, v) in corpus.iter().zip(&per_bench) {
        out.facts.push((format!("msteps_per_s.{}", b.w.name), (*v).into()));
    }
    Ok(())
}

fn traced(opts: &RunOpts, out: &mut Outcome) -> Result<(), String> {
    let corpus = setup(opts.smoke);
    // Untraced and traced passes in turn, each operation at its fastest on
    // either side: one pass each would compare two moments of the host.
    let mut tracer = Tracer::new(true, Instant::now(), 0);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..opts.reps(TRACED_REPS) {
        plain.push(pass(&corpus, &mut Tracer::off())?);
        traced.push(pass(&corpus, &mut tracer)?);
    }
    let best = |passes: &[Vec<BenchRun>], f: &dyn Fn(&BenchRun) -> f64| -> f64 {
        (0..corpus.len())
            .map(|i| passes.iter().map(|p| f(&p[i])).fold(f64::INFINITY, f64::min))
            .sum()
    };
    let both = |r: &BenchRun| r.cae_wall_s + r.auto_wall_s;
    out.set_once("trace.overhead_share", best(&traced, &both) / best(&plain, &both) - 1.0);
    let mut op_ms: Vec<f64> = (0..corpus.len())
        .flat_map(|i| {
            let fastest = |f: &dyn Fn(&BenchRun) -> f64| {
                plain.iter().map(|p| f(&p[i]) * 1e3).fold(f64::INFINITY, f64::min)
            };
            [fastest(&|r| r.cae_wall_s), fastest(&|r| r.auto_wall_s)]
        })
        .collect();
    op_ms.sort_by(f64::total_cmp);
    out.set_once("client.p99_ms", exact_quantile(&op_ms, 0.99));
    let runs = &traced[0];
    for p in plain.iter().chain(&traced) {
        out.attempted += 2 * corpus.len() as u64;
        out.failed += u64::from(fingerprint(p) != fingerprint(runs));
    }

    // Counts read off the reports' merged traces; they repeat exactly.
    let traces: Vec<&PhaseTrace> = runs
        .iter()
        .flat_map(|r| {
            [&r.cae.access_trace, &r.cae.execute_trace, &r.auto.access_trace, &r.auto.execute_trace]
        })
        .collect();
    let sum = |f: &dyn Fn(&PhaseTrace) -> u64| traces.iter().map(|t| f(t)).sum::<u64>() as f64;
    let accesses = sum(&|t| t.loads + t.stores + t.prefetches);
    let total_steps = sum(&|t| steps(t));
    out.set_once("sim.steps.cae", runs.iter().map(|r| report_steps(&r.cae)).sum::<u64>() as f64);
    out.set_once("sim.steps.auto", runs.iter().map(|r| report_steps(&r.auto)).sum::<u64>() as f64);
    out.set_once("mem.accesses", accesses);
    out.set_once("mem.accesses_per_step", accesses / total_steps);
    out.set_once(
        "mem.demand_l1_hit_share",
        sum(&|t| t.demand_hits[0]) / sum(&|t| t.demand_hits.iter().sum()),
    );
    out.set_once("mem.dram_lines", sum(&|t| t.dram_lines()));
    out.set_once("mem.writeback_lines", sum(&|t| t.writeback_lines));
    out.set_once(
        "mem.prefetch_wasted_share",
        sum(&|t| t.prefetch_hits[0]) / sum(&|t| t.prefetches),
    );
    let (edp, time) = headline(runs);
    out.set_once("sim.edp_auto_vs_cae", edp);
    out.set_once("sim.time_auto_vs_cae", time);

    // Probes, sharing what the two passes left of the budget.
    let probe_s = (opts.seconds / 80.0).clamp(0.02, 0.5);
    let (alu, l1load) = probe::ns_per_step(2.0 * probe_s);
    out.set_once("sim.ns_per_step.alu", alu);
    out.set_once("sim.ns_per_step.l1load", l1load);
    let mem = probe::ns_per_access(5.0 * probe_s, opts.seed);
    for (name, ns) in
        ["l1_hit", "stream_read", "stream_write", "prefetch_scan", "random"].iter().zip(mem)
    {
        out.set_once(&format!("mem.ns_per_access.{name}"), ns);
    }
    let (time_us, select_us) = probe::timing_and_power_us(probe_s, &traces);
    out.set_once("sim.timing.time_s_us", time_us);
    out.set_once("power.select_optimal_us", select_us);
    let json_ns = probe::ns_per_unit(probe_s / 2.0, || {
        for r in runs {
            std::hint::black_box(r.cae.to_json_string());
        }
        runs.len() as u64
    });
    out.set_once("runtime.report_json_us", json_ns / 1e3);

    // Differential runs: the same task lists through `Machine::run` alone,
    // again each at its fastest.
    let (mut raw_cae_s, mut raw_auto_s) = (0.0, 0.0);
    let mut lowered = Vec::new();
    for (i, b) in corpus.iter().enumerate() {
        let mut fastest = |tasks: &[TaskInstance]| -> Result<RawRun, String> {
            let mut best = raw_run(b, tasks, &mut tracer, i as u64)?;
            for _ in 1..opts.reps(TRACED_REPS) {
                let again = raw_run(b, tasks, &mut tracer, i as u64)?;
                best.wall_s = best.wall_s.min(again.wall_s);
            }
            Ok(best)
        };
        let (cae, auto) = (fastest(&b.cae)?, fastest(&b.auto)?);
        out.check(cae.memory == auto.memory);
        out.set_once(
            &format!("sim.msteps_per_s.{}", b.w.name),
            steps(&cae.trace) as f64 / 1e6 / cae.wall_s,
        );
        // Each access class at its probed cost: L1 hits, lines fetched
        // (a streamed line is one miss and seven hits), stores, prefetches
        // that fetch a line. An estimate: the probes' streams are not this
        // benchmark's.
        let t = &cae.trace;
        let line_miss_ns = 8.0 * mem[1] - 7.0 * mem[0];
        let est_ns = (t.demand_hits[0] + t.prefetch_hits[0]) as f64 * mem[0]
            + t.demand_hits[1..].iter().sum::<u64>() as f64 * line_miss_ns
            + t.stores as f64 * mem[2]
            + t.prefetch_hits[1..].iter().sum::<u64>() as f64 * mem[3];
        out.set_once(&format!("mem.time_share_est.{}", b.w.name), est_ns / 1e9 / cae.wall_s);
        raw_cae_s += cae.wall_s;
        raw_auto_s += auto.wall_s;
        lowered.extend(cae.lowered);
        lowered.extend(auto.lowered);
    }
    let all: Vec<Vec<BenchRun>> = plain.into_iter().chain(traced).collect();
    out.set_once(
        "runtime.overhead_share.coupled_max",
        1.0 - raw_cae_s / best(&all, &|r| r.cae_wall_s),
    );
    out.set_once(
        "runtime.overhead_share.dae_optimal",
        1.0 - raw_auto_s / best(&all, &|r| r.auto_wall_s),
    );
    let lower_us: Vec<f64> = lowered.iter().map(|s| s.wall_s * 1e6).collect();
    let ops: u32 = lowered.iter().map(|s| s.ops).sum();
    out.set_once("sim.lower_us_per_func", median(&lower_us));
    out.set_once("sim.lower_ops", f64::from(ops));
    out.set_once(
        "sim.lower_fused_share",
        f64::from(lowered.iter().map(|s| s.fused).sum::<u32>()) / f64::from(ops),
    );

    crate::finish_trace("sim-corpus", &tracer, opts, out)
}
