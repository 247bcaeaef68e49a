//! The parallel compilation executor with deterministic merge.
//!
//! [`Driver::compile`] replaces [`dae_core::transform_module`]: it compiles
//! every task in the module through [`dae_core::generate_access_with`],
//! consulting the incremental [`Cache`] first and fanning the misses out
//! over the calling thread and `std::thread::scope` workers. The output is
//! **bit-identical at any thread count** — and to the sequential
//! `transform_module` path — by construction:
//!
//! * workers only *read* the module (a shared `&Module` snapshot) and
//!   return their generated functions; nothing mutates shared state off
//!   the main thread;
//! * results are scattered into per-task slots, then merged into the
//!   module **in task order** on the main thread, so generated functions
//!   get the same [`dae_ir::FuncId`]s regardless of completion order;
//! * cache probes and inserts also happen on the main thread in task
//!   order, so [`CacheStats`] are deterministic too.
//!
//! Work distribution (which worker compiles which task) is the only
//! scheduling freedom, and it is observable *only* in the wall-clock
//! [`PassSpan`]s — never in the compiled module or its statistics.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use dae_core::{generate_access_with, CompilerOptions, DaeMap, GeneratedAccess, RefuseReason};
use dae_ir::{FuncId, Function, Module};
use dae_pgo::{plan_refinement, PhaseProfile, ProfileSet};
use dae_trace::json::JsonValue;
use dae_trace::{TraceEvent, TraceSink};

use crate::cache::{Artifact, Cache, CacheStats};
use crate::hash::{refined_key, task_key, Pipeline};

/// The timed record of one compilation stage (or one cache probe).
#[derive(Clone, Debug, PartialEq)]
pub struct PassSpan {
    /// Worker lane that ran the stage (0 for the calling thread).
    pub worker: u32,
    /// Stage name, one of [`dae_core::STAGES`] or `"cache"`.
    pub pass: &'static str,
    /// Name of the task function being compiled.
    pub func: String,
    /// Start, in host seconds since the driver run's origin.
    pub start_s: f64,
    /// Duration, in host seconds.
    pub dur_s: f64,
    /// True when the result came from the incremental cache.
    pub cached: bool,
}

/// Driver construction knobs.
#[derive(Clone, Debug)]
pub struct DriverConfig {
    /// Worker threads for cache-miss compilation (1 = run on the caller).
    pub jobs: usize,
    /// Root of the on-disk cache tier; `None` disables it.
    pub cache_dir: Option<PathBuf>,
    /// Byte budget (approximate) of the in-memory cache tier. Exposed on
    /// the CLIs as `--cache-max-mb`.
    pub mem_max_bytes: usize,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig { jobs: 1, cache_dir: None, mem_max_bytes: 64 << 20 }
    }
}

/// The result of one [`Driver::compile`] call.
#[derive(Debug)]
pub struct CompileOutcome {
    /// The task → access-function registry, exactly as
    /// [`dae_core::transform_module`] would have produced it.
    pub map: DaeMap,
    /// Tasks seen.
    pub tasks: usize,
    /// Tasks for which an access function exists (compiled or cached).
    pub generated: usize,
    /// Tasks refused (they run coupled).
    pub refused: usize,
    /// Tasks answered from the cache (hits, both tiers).
    pub from_cache: usize,
    /// Tasks compiled (or replayed) under a profile-refined cache key.
    pub refined: usize,
    /// Cache counter increments attributable to this compile.
    pub cache: CacheStats,
    /// Timed pass spans, grouped by task in task order.
    pub spans: Vec<PassSpan>,
    /// The **base** (profile-independent) cache key of every task — what
    /// profile collection keys records by, so a stored profile finds the
    /// task again on the next compile regardless of refinement state.
    pub keys: TaskKeys,
}

/// The base cache keys of one compile's tasks, in task order: the keys the
/// probe loop computes anyway, kept as they come.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TaskKeys(Vec<(FuncId, u64)>);

impl TaskKeys {
    /// The base key of `task`, if it is one of the compile's tasks. It
    /// takes and returns references, as the map it replaced did, so a
    /// caller written against that map reads it unchanged.
    pub fn get(&self, task: &FuncId) -> Option<&u64> {
        // Task order is function-id order.
        let at = self.0.binary_search_by_key(task, |(f, _)| *f).ok()?;
        Some(&self.0[at].1)
    }
}

impl CompileOutcome {
    /// The report-facing counts of this compile, the `compile` section of
    /// a traced run's report. Deterministic counts only — never wall-clock
    /// times or the job count — so the section is byte-identical across
    /// `--jobs` settings and cold/warm caches compare on content alone.
    pub fn counts_json(&self) -> JsonValue {
        let c = &self.cache;
        JsonValue::obj([
            ("tasks", self.tasks.into()),
            ("generated", self.generated.into()),
            ("refused", self.refused.into()),
            ("from_cache", self.from_cache.into()),
            ("mem_hits", c.mem_hits.into()),
            ("disk_hits", c.disk_hits.into()),
            ("misses", c.misses.into()),
            ("evictions", c.evictions.into()),
            ("hits", (c.mem_hits + c.disk_hits).into()),
        ])
    }
}

/// One task's progress through probe → compile → merge.
enum Slot {
    /// Cache hit: merge the artifact directly.
    Ready(Artifact),
    /// Cache miss: the `k`-th entry of the parallel work list.
    Work(usize),
}

/// Compiles modules through [`dae_core::generate_access_with`] with
/// incremental caching, profile-guided refinement and a parallel executor.
pub struct Driver {
    cache: Cache,
    jobs: usize,
    profiles: ProfileSet,
}

impl Driver {
    /// A driver under `config`.
    pub fn new(config: &DriverConfig) -> Driver {
        Driver {
            cache: Cache::new(config.mem_max_bytes, config.cache_dir.as_deref()),
            jobs: config.jobs.max(1),
            profiles: ProfileSet::new(),
        }
    }

    /// Installs the profile set consulted by subsequent [`Driver::compile`]
    /// calls. A task whose **base** key has a profile is refined by it (the
    /// `refine` stage) under a profile-folded cache key; every other task —
    /// and every task when the set is empty — stays on the static path,
    /// byte-identical, same cache keys. Returns the previous set.
    pub fn set_profiles(&mut self, profiles: ProfileSet) -> ProfileSet {
        std::mem::replace(&mut self.profiles, profiles)
    }

    /// Cache counters accumulated over the driver's lifetime.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Approximate bytes currently held by the in-memory cache tier.
    pub fn cache_mem_used_bytes(&self) -> usize {
        self.cache.mem_used_bytes()
    }

    /// Compiles every task in `module`, adding the generated access
    /// functions exactly like [`dae_core::transform_module`] — same
    /// functions, same ids, same registry — at any job count, cold or
    /// warm cache. Tasks are refined against the installed profile set
    /// ([`Driver::set_profiles`]).
    pub fn compile(
        &mut self,
        module: &mut Module,
        mut opts_for: impl FnMut(FuncId, &Function) -> CompilerOptions,
    ) -> CompileOutcome {
        let (cache, jobs, profiles) = (&mut self.cache, self.jobs, &self.profiles);
        let origin = Instant::now();
        let before = cache.stats();
        let fingerprint = Pipeline::standard().fingerprint();
        let tasks = module.task_ids();

        // Probe phase (main thread, task order): resolve each task to a
        // cached artifact or a work-list slot. A task with a profile is
        // keyed under `refined_key(base, profile_hash)` so refined
        // artifacts never alias static ones and a profile change re-keys.
        let mut slots: Vec<Slot> = Vec::with_capacity(tasks.len());
        let mut task_spans: Vec<Vec<PassSpan>> = vec![Vec::new(); tasks.len()];
        let mut work: Vec<(FuncId, CompilerOptions, u64, Option<PhaseProfile>)> = Vec::new();
        let mut base_keys = Vec::with_capacity(tasks.len());
        let mut refined = 0usize;
        for (i, &task) in tasks.iter().enumerate() {
            let opts = opts_for(task, module.func(task));
            let base = task_key(module, task, &opts, fingerprint);
            base_keys.push((task, base));
            let profile = profiles.get(base).copied().filter(|p| p.runs > 0);
            let key = match &profile {
                Some(p) => {
                    refined += 1;
                    refined_key(base, p.content_hash())
                }
                None => base,
            };
            let start_s = origin.elapsed().as_secs_f64();
            match cache.lookup(key) {
                Some(artifact) => {
                    task_spans[i].push(PassSpan {
                        worker: 0,
                        pass: "cache",
                        func: module.func(task).name.clone(),
                        start_s,
                        dur_s: origin.elapsed().as_secs_f64() - start_s,
                        cached: true,
                    });
                    slots.push(Slot::Ready(artifact));
                }
                None => {
                    slots.push(Slot::Work(work.len()));
                    work.push((task, opts, key, profile));
                }
            }
        }

        // Compile phase: every miss through `generate_access_with`. The
        // calling thread is worker 0; workers 1.. are spawned only when there
        // is more than one job and more than one miss. Workers see a read-only
        // module snapshot and take the next work index until none is left.
        type TaskResult = (Result<GeneratedAccess, RefuseReason>, Vec<PassSpan>);
        let snapshot: &Module = module;
        let next = AtomicUsize::new(0);
        let worker = |w: u32| {
            let mut out: Vec<(usize, TaskResult)> = Vec::new();
            loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                let Some((task, opts, _, profile)) = work.get(k) else { break out };
                out.push((
                    k,
                    compile_one(snapshot, *task, opts.clone(), profile.as_ref(), origin, w),
                ));
            }
        };
        let done = std::thread::scope(|scope| {
            let worker = &worker;
            let spawned: Vec<_> =
                (1..jobs.min(work.len())).map(|w| scope.spawn(move || worker(w as u32))).collect();
            let mut done = worker(0);
            for h in spawned {
                done.extend(h.join().expect("worker panicked"));
            }
            done
        });
        let mut results: Vec<Option<TaskResult>> = Vec::with_capacity(work.len());
        results.resize_with(work.len(), || None);
        for (k, r) in done {
            results[k] = Some(r);
        }

        // Merge phase (main thread, task order): identical add_function
        // order — and therefore identical FuncIds — at any job count.
        let mut map = DaeMap::default();
        let mut outcome = CompileOutcome {
            map: DaeMap::default(),
            tasks: tasks.len(),
            generated: 0,
            refused: 0,
            from_cache: 0,
            refined,
            cache: CacheStats::default(),
            spans: Vec::new(),
            keys: TaskKeys(base_keys),
        };
        for (i, (&task, slot)) in tasks.iter().zip(slots).enumerate() {
            match slot {
                Slot::Ready(artifact) => {
                    outcome.from_cache += 1;
                    match artifact {
                        Artifact::Generated { func, strategy, info } => {
                            outcome.generated += 1;
                            let access_id = module.add_function(func);
                            map.access_of.insert(task, access_id);
                            map.strategy_of.insert(task, strategy);
                            map.info_of.insert(task, info);
                        }
                        Artifact::Refused { reason } => {
                            outcome.refused += 1;
                            map.refused.insert(task, reason);
                        }
                    }
                }
                Slot::Work(k) => {
                    let (res, spans) = results[k].take().expect("every work item was compiled");
                    task_spans[i] = spans;
                    let key = work[k].2;
                    match res {
                        Ok(g) => {
                            outcome.generated += 1;
                            cache.insert(
                                key,
                                Artifact::Generated {
                                    func: g.func.clone(),
                                    strategy: g.strategy.clone(),
                                    info: g.info,
                                },
                            );
                            let access_id = module.add_function(g.func);
                            map.access_of.insert(task, access_id);
                            map.strategy_of.insert(task, g.strategy);
                            map.info_of.insert(task, g.info);
                        }
                        Err(reason) => {
                            outcome.refused += 1;
                            cache.insert(key, Artifact::Refused { reason: reason.clone() });
                            map.refused.insert(task, reason);
                        }
                    }
                }
            }
        }
        outcome.map = map;
        outcome.cache = cache.stats().delta(&before);
        outcome.spans = task_spans.into_iter().flatten().collect();
        outcome
    }
}

/// Compiles one task on `worker`, one [`PassSpan`] per stage run. A
/// profile refines the options in the `refine` stage.
fn compile_one(
    module: &Module,
    task: FuncId,
    opts: CompilerOptions,
    profile: Option<&PhaseProfile>,
    origin: Instant,
    worker: u32,
) -> (Result<GeneratedAccess, RefuseReason>, Vec<PassSpan>) {
    let func = &module.func(task).name;
    let mut spans = Vec::with_capacity(dae_core::STAGES.len());
    let mut start_s = origin.elapsed().as_secs_f64();
    let result = generate_access_with(
        module,
        task,
        opts,
        |opts| refine(profile, module.func(task).params.len(), opts),
        |pass| {
            let end_s = origin.elapsed().as_secs_f64();
            spans.push(PassSpan {
                worker,
                pass,
                func: func.clone(),
                start_s,
                dur_s: end_s - start_s,
                cached: false,
            });
            start_s = end_s;
        },
    );
    (result, spans)
}

/// The `refine` stage: applies what a task's measured profile justifies
/// ([`plan_refinement`]) to its options, or refuses the task. Without a
/// profile it changes nothing, so the static path stays byte-identical.
fn refine(
    profile: Option<&PhaseProfile>,
    params: usize,
    opts: &mut CompilerOptions,
) -> Result<(), RefuseReason> {
    let Some(profile) = profile else { return Ok(()) };
    let plan = plan_refinement(profile, opts.param_hints.iter().any(|&h| h != 0));
    if plan.drop_access_phase {
        // Measured coverage says the access phase fetches nothing execute
        // would miss on: running it is pure overhead, so the task runs
        // coupled like any other refusal.
        return Err(RefuseReason::NothingToPrefetch);
    }
    opts.line_dedup |= plan.line_dedup;
    opts.skip_hull_check |= plan.force_profitable;
    if let Some(trips) = plan.trip_hint {
        // The measured trip count stands in for absent caller hints.
        opts.param_hints = vec![trips; params];
    }
    Ok(())
}

/// Forwards pass spans to a trace sink as
/// [`dae_trace::TraceEvent::CompilePass`] events. Worker indices are folded
/// onto the sink's `lanes` (the traced machine's core count) so exporters
/// indexing per-core arrays never see an out-of-range lane.
pub fn emit_spans(spans: &[PassSpan], lanes: usize, sink: &mut dyn TraceSink) {
    if !sink.is_enabled() {
        return;
    }
    let lanes = lanes.max(1) as u32;
    for s in spans {
        sink.record(TraceEvent::CompilePass {
            core: s.worker % lanes,
            pass: s.pass.to_string(),
            func: s.func.clone(),
            start_s: s.start_s,
            dur_s: s.dur_s,
            cached: s.cached,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dae_core::transform_module;
    use dae_ir::{print_module, FunctionBuilder, Type, Value};
    use dae_trace::Recorder;

    /// A module with several distinct tasks: two affine streams, a gather
    /// (skeleton path), and a store-only task (refused).
    fn test_module() -> Module {
        let mut m = Module::new();
        let a = m.add_global("a", Type::F64, 4096);
        let idx = m.add_global("idx", Type::I64, 512);
        for (name, stride) in [("stream1", 1i64), ("stream2", 3i64)] {
            let mut b = FunctionBuilder::new(name, vec![Type::I64], Type::Void);
            b.set_task();
            b.counted_loop(Value::i64(0), Value::Arg(0), Value::i64(1), |b, i| {
                let x = b.imul(i, stride);
                let p = b.elem_addr(Value::Global(a), x, Type::F64);
                let v = b.load(Type::F64, p);
                let w = b.fmul(v, 2.0f64);
                b.store(p, w);
            });
            b.ret(None);
            m.add_function(b.finish());
        }
        let mut b = FunctionBuilder::new("gather", vec![Type::I64], Type::Void);
        b.set_task();
        b.counted_loop(Value::i64(0), Value::Arg(0), Value::i64(1), |b, i| {
            let ip = b.elem_addr(Value::Global(idx), i, Type::I64);
            let j = b.load(Type::I64, ip);
            let p = b.elem_addr(Value::Global(a), j, Type::F64);
            let _ = b.load(Type::F64, p);
        });
        b.ret(None);
        m.add_function(b.finish());
        let mut b = FunctionBuilder::new("writeonly", vec![], Type::Void);
        b.set_task();
        let p = b.elem_addr(Value::Global(a), Value::i64(0), Type::F64);
        b.store(p, 1.0f64);
        b.ret(None);
        m.add_function(b.finish());
        m
    }

    fn opts_for(_: FuncId, f: &Function) -> CompilerOptions {
        CompilerOptions { param_hints: vec![64; f.params.len()], ..Default::default() }
    }

    #[test]
    fn matches_transform_module_at_any_job_count() {
        let mut reference = test_module();
        let ref_map = transform_module(&mut reference, opts_for);
        let ref_text = print_module(&reference);
        for jobs in [1usize, 2, 8] {
            let mut m = test_module();
            let mut d = Driver::new(&DriverConfig { jobs, ..Default::default() });
            let out = d.compile(&mut m, opts_for);
            assert_eq!(print_module(&m), ref_text, "jobs={jobs} must be bit-identical");
            assert_eq!(out.tasks, 4);
            assert_eq!(out.generated, 3);
            assert_eq!(out.refused, 1);
            assert_eq!(out.from_cache, 0);
            assert_eq!(out.cache.misses, 4);
            for (task, access) in &ref_map.access_of {
                assert_eq!(out.map.access(*task), Some(*access), "same FuncIds");
            }
            assert_eq!(out.map.refused.len(), ref_map.refused.len());
        }
    }

    /// `n` comparable affine tasks: two-deep strided nests over one array.
    fn affine_module(n: i64) -> Module {
        let mut m = Module::new();
        let a = m.add_global("a", Type::F64, 1 << 16);
        for t in 0..n {
            let mut b = FunctionBuilder::new(format!("nest{t}"), vec![Type::I64], Type::Void);
            b.set_task();
            b.counted_loop(Value::i64(0), Value::Arg(0), Value::i64(1), |b, i| {
                b.counted_loop(Value::i64(0), Value::i64(64), Value::i64(1), |b, j| {
                    let row = b.imul(i, 64 + t);
                    let x = b.iadd(row, j);
                    let p = b.elem_addr(Value::Global(a), x, Type::F64);
                    let v = b.load(Type::F64, p);
                    let w = b.fmul(v, 2.0f64);
                    b.store(p, w);
                });
            });
            b.ret(None);
            m.add_function(b.finish());
        }
        m
    }

    #[test]
    fn parallel_compile_fans_out_over_workers_and_stays_identical() {
        let mut serial = affine_module(32);
        let one = Driver::new(&DriverConfig::default()).compile(&mut serial, opts_for);
        assert_eq!((one.generated, one.cache.misses), (32, 32));
        assert!(one.spans.iter().all(|s| s.worker == 0));
        // Which worker takes which task is the one thing the driver leaves
        // to the OS scheduler (on one core a single worker may drain the
        // whole queue before the next is ever run), so fan-out is asserted
        // existentially over a few cold compiles; identity holds on each.
        let fanned_out = (0..64).any(|_| {
            let mut parallel = affine_module(32);
            let four = Driver::new(&DriverConfig { jobs: 4, ..Default::default() })
                .compile(&mut parallel, opts_for);
            assert_eq!(print_module(&parallel), print_module(&serial));
            four.spans.iter().any(|s| s.worker != four.spans[0].worker)
        });
        assert!(fanned_out, "jobs: 4 never compiled on more than one worker");
    }

    #[test]
    fn warm_compile_hits_the_cache_and_stays_identical() {
        let mut cold = test_module();
        let mut d = Driver::new(&DriverConfig::default());
        let first = d.compile(&mut cold, opts_for);
        assert_eq!(first.cache.misses, 4);
        let mut warm = test_module();
        let second = d.compile(&mut warm, opts_for);
        assert_eq!(second.from_cache, 4);
        assert_eq!(second.cache.mem_hits, 4);
        assert_eq!(second.cache.misses, 0);
        assert_eq!(print_module(&warm), print_module(&cold));
        // Cached refusals replay too.
        assert_eq!(second.refused, 1);
        // Hit spans replace pass spans.
        assert!(second.spans.iter().all(|s| s.pass == "cache" && s.cached));
        assert_eq!(second.spans.len(), 4);
    }

    #[test]
    fn disk_cache_round_trip_is_bit_identical() {
        let dir = std::env::temp_dir().join(format!("dae-driver-disk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = DriverConfig { cache_dir: Some(dir.clone()), ..Default::default() };
        let mut cold = test_module();
        Driver::new(&cfg).compile(&mut cold, opts_for);
        // A *fresh* driver (empty memory tier) against the same directory.
        let mut warm = test_module();
        let mut d = Driver::new(&cfg);
        let out = d.compile(&mut warm, opts_for);
        assert_eq!(out.cache.disk_hits, 4, "all tasks replay from disk");
        assert_eq!(print_module(&warm), print_module(&cold));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn options_change_invalidates_the_cache() {
        let mut d = Driver::new(&DriverConfig::default());
        let mut m1 = test_module();
        d.compile(&mut m1, opts_for);
        let mut m2 = test_module();
        let out = d.compile(&mut m2, |_, f| CompilerOptions {
            param_hints: vec![128; f.params.len()],
            ..Default::default()
        });
        // The writeonly task has no params, so its options are unchanged —
        // everything else misses.
        assert_eq!(out.cache.misses, 3);
        assert_eq!(out.from_cache, 1);
    }

    /// A profile set holding `profile` for `stream1` alone. `statics` is a
    /// static compile of `m`.
    fn stream1_profile(statics: &CompileOutcome, m: &Module, profile: PhaseProfile) -> ProfileSet {
        let stream1 = *m
            .func_by_name("stream1")
            .and_then(|f| statics.keys.get(&f))
            .expect("stream1 compiled");
        let mut set = ProfileSet::new();
        set.insert(stream1, profile);
        set
    }

    /// One decoupled run of `stream1`: the access phase issued 64
    /// prefetches that fetched `fetched` DRAM lines, and execute then
    /// missed DRAM `missed` times.
    fn one_run(fetched: u64, missed: u64) -> PhaseProfile {
        use dae_pgo::PhaseSample;
        let mut p = PhaseProfile::default();
        p.absorb(
            Some(&PhaseSample {
                instrs: 100,
                prefetches: 64,
                prefetch_dram_lines: fetched,
                ..Default::default()
            }),
            &PhaseSample { instrs: 400, loads: 64, dram_misses: missed, ..Default::default() },
        );
        p
    }

    /// A profile set giving `stream1` useless prefetch coverage, so the
    /// `refine` stage refuses it. `statics` is a static compile of `m`.
    fn useless_stream1_profile(statics: &CompileOutcome, m: &Module) -> ProfileSet {
        stream1_profile(statics, m, one_run(0, 64))
    }

    /// The spans of `out`, one run of consecutive spans per task.
    fn spans_per_task(out: &CompileOutcome) -> Vec<Vec<&PassSpan>> {
        let mut per_task: Vec<Vec<&PassSpan>> = Vec::new();
        for s in &out.spans {
            match per_task.last_mut() {
                Some(run) if run[0].func == s.func => run.push(s),
                _ => per_task.push(vec![s]),
            }
        }
        per_task
    }

    #[test]
    fn a_compiled_task_reports_its_five_stages_in_order() {
        let out = Driver::new(&DriverConfig::default()).compile(&mut test_module(), opts_for);
        for run in spans_per_task(&out) {
            let names: Vec<_> = run.iter().map(|s| s.pass).collect();
            assert_eq!(names, Pipeline::standard().pass_names(), "{}", run[0].func);
        }
    }

    #[test]
    fn stage_spans_do_not_overlap() {
        let out = Driver::new(&DriverConfig::default()).compile(&mut test_module(), opts_for);
        for w in out.spans.windows(2) {
            assert!(w[1].start_s >= w[0].start_s + w[0].dur_s - 1e-9, "{w:?}");
        }
    }

    #[test]
    fn a_task_runs_all_its_stages_on_one_worker() {
        for jobs in [1, 4] {
            let out = Driver::new(&DriverConfig { jobs, ..Default::default() })
                .compile(&mut affine_module(8), opts_for);
            for run in spans_per_task(&out) {
                assert!(
                    run.iter().all(|s| s.worker == run[0].worker && (s.worker as usize) < jobs),
                    "jobs={jobs}: {run:?}"
                );
            }
        }
    }

    #[test]
    fn a_refusing_stage_still_reports_its_span() {
        let mut d = Driver::new(&DriverConfig::default());
        let mut m = test_module();
        let statics = d.compile(&mut m, opts_for);
        let writeonly = spans_per_task(&statics).pop().expect("writeonly is the last task");
        assert_eq!(writeonly.last().map(|s| s.pass), Some("generate"), "refused in `generate`");
        d.set_profiles(useless_stream1_profile(&statics, &m));
        let refined = d.compile(&mut test_module(), opts_for);
        let stream1 = spans_per_task(&refined).remove(0);
        let names: Vec<_> = stream1.iter().map(|s| s.pass).collect();
        assert_eq!(names, ["inline", "optimize", "refine"], "refused in `refine`");
    }

    #[test]
    fn a_cache_hit_reports_one_cache_span() {
        let mut d = Driver::new(&DriverConfig::default());
        d.compile(&mut test_module(), opts_for);
        // New hints miss for the three tasks with a parameter; `writeonly`
        // has none and hits.
        let out = d.compile(&mut test_module(), |_, f| CompilerOptions {
            param_hints: vec![128; f.params.len()],
            ..Default::default()
        });
        let hits: Vec<_> = out.spans.iter().filter(|s| s.pass == "cache").collect();
        assert_eq!(hits.len(), out.from_cache, "{hits:?}");
    }

    #[test]
    fn a_profile_that_plans_nothing_leaves_the_bytes_unchanged() {
        let mut d = Driver::new(&DriverConfig::default());
        let mut statics = test_module();
        let out = d.compile(&mut statics, opts_for);
        // 60 of 64 prefetches fetched a line and execute missed 4 times:
        // accurate, covering, decoupled and hinted.
        let healthy = stream1_profile(&out, &statics, one_run(60, 4));
        let mut refined = test_module();
        d.set_profiles(healthy);
        d.compile(&mut refined, opts_for);
        assert_eq!(print_module(&refined), print_module(&statics));
    }

    #[test]
    fn the_same_profile_always_gives_the_same_bytes() {
        let mut statics = test_module();
        let out = Driver::new(&DriverConfig::default()).compile(&mut statics, opts_for);
        // 8 of 64 prefetches fetched a line: the plan re-steps by line.
        let redundant = stream1_profile(&out, &statics, one_run(8, 4));
        let compile = || {
            let mut m = test_module();
            let mut d = Driver::new(&DriverConfig::default());
            d.set_profiles(redundant.clone());
            d.compile(&mut m, opts_for);
            print_module(&m)
        };
        assert_eq!(compile(), compile());
    }

    #[test]
    fn profiles_rekey_tasks_and_can_flip_outcomes() {
        // Static compile to learn the base keys.
        let mut d = Driver::new(&DriverConfig::default());
        let mut m = test_module();
        let statics = d.compile(&mut m, opts_for);
        let tasks = m.task_ids();
        assert_eq!(tasks.len(), 4);
        for (f, _) in m.funcs() {
            let keyed = statics.keys.get(&f).is_some();
            assert_eq!(keyed, tasks.contains(&f), "every task, and only a task, has a base key");
        }
        assert_eq!(statics.refined, 0);
        d.set_profiles(useless_stream1_profile(&statics, &m));

        let mut refined_m = test_module();
        let refined = d.compile(&mut refined_m, opts_for);
        assert_eq!(refined.refined, 1, "exactly one task took the refined key");
        // The profiled task misses the cache (new key) and is refused;
        // the other three replay from the static compile untouched.
        assert_eq!(refined.from_cache, 3);
        assert_eq!(refined.refused, 2, "writeonly plus the profile-refused stream1");
        assert_eq!(refined.generated, 2);

        // Restoring the empty set restores the static result bit-for-bit.
        d.set_profiles(ProfileSet::new());
        let mut back = test_module();
        let again = d.compile(&mut back, opts_for);
        assert_eq!(again.refined, 0);
        assert_eq!(again.from_cache, 4);
        assert_eq!(print_module(&back), print_module(&m));
    }

    #[test]
    fn spans_emit_as_compile_pass_events_clamped_to_lanes() {
        let mut m = test_module();
        let mut d = Driver::new(&DriverConfig { jobs: 8, ..Default::default() });
        let out = d.compile(&mut m, opts_for);
        let mut rec = Recorder::new(2);
        emit_spans(&out.spans, rec.cores(), &mut rec);
        assert_eq!(rec.len(), out.spans.len());
        assert!(rec.events().iter().all(|e| e.core() < 2), "lanes folded onto cores");
        assert!(rec.events().iter().all(|e| matches!(e, TraceEvent::CompilePass { .. })));
    }
}
