//! The execution engine: untrusted IR text in, deterministic JSON out.
//!
//! One [`Engine`] is shared by every worker thread. It owns the one
//! [`dae_driver::Driver`] — and therefore the one content-addressed
//! incremental cache — so identical programs submitted by *different*
//! clients replay each other's compiles. Compilation runs under the driver
//! mutex (cheap when warm); simulation, the expensive part of a `run`
//! request, runs outside any lock.
//!
//! # Hardening
//!
//! The IR text is attacker-controlled, so the engine refuses before it
//! allocates: module global data is capped ([`EngineConfig::max_global_bytes`])
//! because the simulator materialises every global as a flat byte vector.
//! Runaway programs hit the interpreter's own step limit (`sim.step-limit`).
//! Any residual panic is caught at [`Engine::handle`]'s boundary and
//! becomes a `serve.internal` error response; the worker, the driver and
//! the cache all survive.
//!
//! # Determinism
//!
//! Successful responses contain only content-derived data: printed IR,
//! strategy reports, and virtual-time run reports. Cache temperature,
//! worker count and queue state are deliberately invisible — the bytes for
//! a given request are identical cold or warm, which is what the e2e suite
//! checks against a fresh single-use engine.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use dae_core::{CompilerOptions, Strategy};
use dae_driver::{Driver, DriverConfig};
use dae_ir::{parse::parse_module, print_module, verify_module, FuncId, Function, Module};
use dae_runtime::{module_instances, run_workload, FreqPolicy, RuntimeConfig, TaskInstance};
use dae_sim::EngineKind;
use dae_trace::json::JsonValue;
use dae_trace::{lock_recover, Fnv64, Lru};

use crate::proto::{codes, ErrorBody, Op, Request};

/// Byte budget of the coupled-baseline memo: 4096 (module, hints, task)
/// baselines at [`BASELINE_ENTRY_BYTES`] each, so `Mix::Warm`'s 2048
/// (program, hint) keys fit with room to spare.
const BASELINE_MAX_BYTES: usize = 256 << 10;

/// Charge per baseline entry: the `(time_s, energy_j)` pair plus the
/// LRU's key, stamp and map overhead, rounded up.
const BASELINE_ENTRY_BYTES: usize = 64;

/// Engine construction knobs.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Driver configuration (cache directory, in-memory byte budget).
    /// `jobs` is forced to 1: parallelism comes from concurrent requests,
    /// not from fan-out inside one compile.
    pub driver: DriverConfig,
    /// Upper bound on a module's total global data, in bytes. The
    /// simulator allocates globals eagerly, so this is the lever that
    /// keeps a hostile `global huge[9e18]` from becoming an OOM.
    pub max_global_bytes: u64,
    /// Byte budget (approximate) of the response cache. Responses are
    /// pure functions of the request, so a repeated request is answered
    /// from here without even re-parsing the IR.
    pub resp_max_bytes: usize,
    /// Dynamic-instruction budget per simulated phase. Untrusted IR can
    /// loop forever in virtual time; this converts a hostile spin into a
    /// prompt `sim.step-limit` error instead of a captive worker. The
    /// default leaves honest workloads three orders of magnitude of
    /// headroom.
    pub max_steps: u64,
    /// Execution engine for simulated phases; no `daed` option sets it.
    /// Responses are identical either way (the engines are observationally
    /// equivalent), so it does not participate in the response-cache key.
    pub engine: EngineKind,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            driver: DriverConfig::default(),
            max_global_bytes: 256 << 20,
            resp_max_bytes: 32 << 20,
            max_steps: 10_000_000,
            engine: EngineKind::default(),
        }
    }
}

/// The shared compile-and-simulate executor behind every worker.
pub struct Engine {
    driver: Mutex<Driver>,
    /// Memoised, already-serialised `result` objects keyed by
    /// [`request_key`], each charged its byte length. Only successes are
    /// cached: errors are cheap to recompute and must not pin the budget.
    resp: Mutex<Lru<Arc<String>>>,
    resp_hits: AtomicU64,
    resp_misses: AtomicU64,
    /// `(time_s, energy_j)` of each task's coupled run at fmax, keyed by
    /// [`ModuleKey::task`]. The baseline does not depend on the policy, so
    /// a `run` that differs from an earlier one only in its policy
    /// simulates only the decoupled runs. Only successes are stored.
    baseline: Mutex<Lru<(f64, f64)>>,
    baseline_hits: AtomicU64,
    baseline_misses: AtomicU64,
    max_global_bytes: u64,
    max_steps: u64,
    engine: EngineKind,
}

impl Engine {
    /// An engine with a fresh driver (and therefore a cold cache).
    pub fn new(config: &EngineConfig) -> Engine {
        let driver_cfg = DriverConfig { jobs: 1, ..config.driver.clone() };
        Engine {
            driver: Mutex::new(Driver::new(&driver_cfg)),
            resp: Mutex::new(Lru::new(config.resp_max_bytes)),
            resp_hits: AtomicU64::new(0),
            resp_misses: AtomicU64::new(0),
            baseline: Mutex::new(Lru::new(BASELINE_MAX_BYTES)),
            baseline_hits: AtomicU64::new(0),
            baseline_misses: AtomicU64::new(0),
            max_global_bytes: config.max_global_bytes,
            max_steps: config.max_steps,
            engine: config.engine,
        }
    }

    /// Handles one work request end to end. Never panics: layer errors
    /// come back as their stable codes, panics as `codes::INTERNAL`.
    ///
    /// Convenience wrapper over [`Engine::handle_raw`] for callers that
    /// want a structured result; the hot serving path uses the raw form.
    pub fn handle(&self, req: &Request) -> Result<JsonValue, ErrorBody> {
        self.handle_raw(req)
            .map(|s| dae_trace::json::parse(&s).expect("cached responses are canonical JSON"))
    }

    /// Handles one work request, returning the `result` object already
    /// serialised.
    ///
    /// Successful responses are pure functions of the request (that is
    /// the protocol's determinism contract), so their bytes are memoised:
    /// a byte-identical request — whoever sends it — is answered from the
    /// response cache without re-parsing the IR or re-printing the JSON.
    pub fn handle_raw(&self, req: &Request) -> Result<Arc<String>, ErrorBody> {
        let key = request_key(req);
        if let Some(result) = self.resp_lookup(key) {
            return Ok(result);
        }
        self.resp_misses.fetch_add(1, Ordering::Relaxed);
        self.miss(req, key)
    }

    /// Response-cache-only lookup, for the server's reader-thread fast
    /// path: a hit is counted and LRU-touched, a miss is *not* counted
    /// (the request proceeds to a worker, whose [`Engine::handle_raw`]
    /// call counts it exactly once).
    pub fn cached_response(&self, req: &Request) -> Option<Arc<String>> {
        self.resp_lookup(request_key(req))
    }

    /// A response-cache hit, counted and LRU-touched.
    fn resp_lookup(&self, key: u64) -> Option<Arc<String>> {
        let hit = lock_recover(&self.resp).get(key).cloned()?;
        self.resp_hits.fetch_add(1, Ordering::Relaxed);
        Some(hit)
    }

    fn miss(&self, req: &Request, key: u64) -> Result<Arc<String>, ErrorBody> {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.dispatch(req)));
        match outcome {
            Ok(Ok(result)) => {
                let bytes = Arc::new(result.to_json_string());
                lock_recover(&self.resp).insert(key, Arc::clone(&bytes), bytes.len());
                Ok(bytes)
            }
            Ok(Err(e)) => Err(e),
            Err(payload) => {
                let what = panic_message(&payload);
                Err(ErrorBody::new(codes::INTERNAL, format!("handler panicked: {what}")))
            }
        }
    }

    /// Response-cache counters only (hits, misses, bytes) — cheap enough
    /// for the `health` fast path: unlike [`Engine::cache_json`] it never
    /// touches the driver lock, so a health probe cannot stall behind a
    /// long compile.
    pub(crate) fn resp_cache_json(&self) -> JsonValue {
        JsonValue::obj([
            ("resp_hits", self.resp_hits.load(Ordering::Relaxed).into()),
            ("resp_misses", self.resp_misses.load(Ordering::Relaxed).into()),
            ("resp_used_bytes", lock_recover(&self.resp).used_bytes().into()),
        ])
    }

    /// Lifetime cache counters and memory-tier occupancy, for `stats`.
    pub(crate) fn cache_json(&self) -> JsonValue {
        let resp_used = lock_recover(&self.resp).used_bytes();
        let baseline_used = lock_recover(&self.baseline).used_bytes();
        let driver = self.lock_driver();
        let s = driver.cache_stats();
        JsonValue::obj([
            ("mem_hits", s.mem_hits.into()),
            ("disk_hits", s.disk_hits.into()),
            ("misses", s.misses.into()),
            ("evictions", s.evictions.into()),
            ("mem_used_bytes", driver.cache_mem_used_bytes().into()),
            ("resp_hits", self.resp_hits.load(Ordering::Relaxed).into()),
            ("resp_misses", self.resp_misses.load(Ordering::Relaxed).into()),
            ("resp_used_bytes", resp_used.into()),
            ("baseline_hits", self.baseline_hits.load(Ordering::Relaxed).into()),
            ("baseline_misses", self.baseline_misses.load(Ordering::Relaxed).into()),
            ("baseline_used_bytes", baseline_used.into()),
        ])
    }

    fn dispatch(&self, req: &Request) -> Result<JsonValue, ErrorBody> {
        let (module, map_json) = self.compile(req)?;
        match req.op {
            Op::Compile => Ok(map_json.compile_result(&module)),
            Op::Report => Ok(map_json.report_result(&module)),
            Op::Run => self.run(req, &module, &map_json),
            // Control ops never reach the engine.
            Op::Stats | Op::Health | Op::Shutdown => {
                Err(ErrorBody::new(codes::BAD_REQUEST, "control op routed to a worker"))
            }
        }
    }

    /// Parses, verifies, caps and compiles the module.
    fn compile(&self, req: &Request) -> Result<(Module, Compiled), ErrorBody> {
        let mut module = parse_module(&req.ir).map_err(|e| ErrorBody::from_coded(&e))?;
        verify_module(&module).map_err(|e| ErrorBody::from_coded(&e))?;
        let mut global_bytes: u64 = 0;
        for (_, g) in module.globals() {
            global_bytes = global_bytes.saturating_add(g.size_bytes());
        }
        if global_bytes > self.max_global_bytes {
            return Err(ErrorBody::new(
                codes::MODULE_TOO_LARGE,
                format!(
                    "module declares {global_bytes} bytes of global data, limit {}",
                    self.max_global_bytes
                ),
            ));
        }
        let tasks = module.task_ids();
        if tasks.is_empty() {
            return Err(ErrorBody::new(codes::BAD_REQUEST, "module contains no `task fn`"));
        }
        let outcome = self.lock_driver().compile(&mut module, |_, f: &Function| {
            CompilerOptions::default().with_hints_for(f, &req.hints)
        });
        verify_module(&module).map_err(|e| ErrorBody::from_coded(&e))?;
        Ok((module, Compiled { tasks, outcome }))
    }

    fn run(&self, req: &Request, module: &Module, c: &Compiled) -> Result<JsonValue, ErrorBody> {
        let base =
            RuntimeConfig::paper_default().with_max_steps(self.max_steps).with_engine(self.engine);
        let policy = match &req.policy {
            None => FreqPolicy::DaeOptimal,
            Some(spec) => FreqPolicy::parse(spec, &base.table)
                .map_err(|msg| ErrorBody::new(codes::BAD_REQUEST, msg))?,
        };
        // Per-task comparison: coupled baseline at fmax vs decoupled under
        // the requested policy — the service twin of `daec --run`.
        let cfg = base.clone().with_policy(policy);
        let simulate = |insts: &[TaskInstance]| {
            run_workload(module, insts, &cfg).map_err(|e| ErrorBody::from_coded(&e))
        };
        let mkey = ModuleKey::of(req);
        let insts = module_instances(module, &c.tasks, &req.hints, |t| c.outcome.map.access(t));
        let one_task = insts.len() == 1;
        let mut whole = None;
        let mut per_task = Vec::with_capacity(insts.len());
        for (index, inst) in insts.iter().enumerate() {
            let (cae_t, cae_e) = self.baseline(mkey.task(index), module, inst, &base)?;
            let mut entry = vec![
                ("task".to_string(), JsonValue::from(module.func(inst.func).name.as_str())),
                ("cae".to_string(), headline(cae_t, cae_e)),
            ];
            if inst.access.is_some() {
                let r2 = simulate(std::slice::from_ref(inst))?;
                entry.push(("dae".to_string(), headline(r2.time_s, r2.energy_j)));
                entry.push((
                    "edp_delta_percent".to_string(),
                    ((r2.edp() / (cae_t * cae_e) - 1.0) * 100.0).into(),
                ));
                // A module's only task: this run is the whole-module run
                // below (same module, same one-instance list, same config),
                // so it is simulated once and reported twice.
                whole = one_task.then_some(r2);
            } else {
                entry.push(("dae".to_string(), JsonValue::Null));
            }
            per_task.push(JsonValue::Obj(entry));
        }
        // One whole-module run — every task instance, decoupled where an
        // access phase exists — reported in full (`RunReport::to_json`).
        // Compile/cache statistics are deliberately not attached: they
        // vary with cache temperature and the report must not.
        let report = match whole {
            Some(report) => report,
            None => simulate(&insts)?,
        };
        Ok(JsonValue::obj([
            ("policy", cfg.policy.label(&cfg.table).into()),
            ("tasks", JsonValue::Arr(per_task)),
            ("report", report.to_json()),
        ]))
    }

    /// `(time_s, energy_j)` of one task's coupled run at fmax — the `cae`
    /// headline every `run` scores its policy against, and the only place
    /// a `run` simulates it.
    ///
    /// The run covers the task and its callees over zero-initialised
    /// globals, with arguments from the hints, under the engine-wide
    /// `base` configuration; the driver only adds access functions. So it
    /// is a function of the module text, the hints and the task's index,
    /// which is what `key` hashes: no policy can change it. A miss
    /// simulates and stores the pair; errors and panics store nothing, so
    /// they recur identically.
    fn baseline(
        &self,
        key: u64,
        module: &Module,
        inst: &TaskInstance,
        base: &RuntimeConfig,
    ) -> Result<(f64, f64), ErrorBody> {
        if let Some(&pair) = lock_recover(&self.baseline).get(key) {
            self.baseline_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(pair);
        }
        self.baseline_misses.fetch_add(1, Ordering::Relaxed);
        let cae = [TaskInstance::coupled(inst.func, inst.args.clone())];
        let r = run_workload(module, &cae, base).map_err(|e| ErrorBody::from_coded(&e))?;
        let pair = (r.time_s, r.energy_j);
        lock_recover(&self.baseline).insert(key, pair, BASELINE_ENTRY_BYTES);
        Ok(pair)
    }

    fn lock_driver(&self) -> std::sync::MutexGuard<'_, Driver> {
        // A panic inside `handle` is already converted to an error; the
        // only driver state a compile mutates is its cache —
        // `Cache::insert`, atomic per artifact, and monotonic counters —
        // so recovering the poisoned lock is safe.
        lock_recover(&self.driver)
    }
}

/// Content key of one work request: everything the response depends on.
/// The `id` is deliberately excluded — it only decorates the envelope.
///
/// Public because the gateway (`dae-gate`) routes on exactly this key:
/// consistent-hash routing on the response-cache key is what makes a
/// repeated request land on the backend that already memoised it.
pub fn request_key(req: &Request) -> u64 {
    let mut h = Fnv64::new();
    h.write(&[req.op as u8]);
    h.write_str(&req.ir);
    h.write_u64(req.hints.len() as u64);
    for &v in &req.hints {
        h.write_i64(v);
    }
    h.write_str(req.policy.as_deref().unwrap_or(""));
    h.finish()
}

/// Fnv64 state over a `run` request's module text and hints, hashed once
/// per request; extended by a task's index, it keys that task's coupled
/// baseline.
#[derive(Clone, Copy)]
struct ModuleKey(Fnv64);

impl ModuleKey {
    fn of(req: &Request) -> ModuleKey {
        let mut h = Fnv64::new();
        h.write_str(&req.ir);
        h.write_u64(req.hints.len() as u64);
        for &v in &req.hints {
            h.write_i64(v);
        }
        ModuleKey(h)
    }

    /// The baseline key of the module's `index`-th task.
    fn task(self, index: usize) -> u64 {
        let mut h = self.0;
        h.write_u64(index as u64);
        h.finish()
    }
}

/// A compiled module's task list and driver outcome.
struct Compiled {
    tasks: Vec<FuncId>,
    outcome: dae_driver::CompileOutcome,
}

impl Compiled {
    /// `compile` result: the printed module plus deterministic counts.
    fn compile_result(&self, module: &Module) -> JsonValue {
        JsonValue::obj([
            ("module", print_module(module).into()),
            ("tasks", self.outcome.tasks.into()),
            ("generated", self.outcome.generated.into()),
            ("refused", self.outcome.refused.into()),
        ])
    }

    /// `report` result: per-task strategy and statistics.
    fn report_result(&self, module: &Module) -> JsonValue {
        let map = &self.outcome.map;
        let tasks: Vec<JsonValue> = self
            .tasks
            .iter()
            .map(|task| {
                let name = module.func(*task).name.as_str();
                match map.strategy_of.get(task) {
                    Some(Strategy::Polyhedral(s)) => JsonValue::obj([
                        ("task", name.into()),
                        ("strategy", "polyhedral".into()),
                        ("n_orig", s.n_orig.into()),
                        ("n_conv_un", s.n_conv_un.into()),
                        ("classes", s.classes.into()),
                        ("nests", s.nests.into()),
                        ("orig_depth", s.orig_depth.into()),
                        ("gen_depth", s.gen_depth.into()),
                    ]),
                    Some(Strategy::Skeleton) => {
                        let info = &map.info_of[task];
                        JsonValue::obj([
                            ("task", name.into()),
                            ("strategy", "skeleton".into()),
                            ("loops_affine", info.loops_affine.into()),
                            ("loops_total", info.loops_total.into()),
                            ("total_loads", info.total_loads.into()),
                            ("non_affine_loads", info.non_affine_loads.into()),
                        ])
                    }
                    None => JsonValue::obj([
                        ("task", name.into()),
                        ("strategy", "refused".into()),
                        ("reason", map.refused[task].to_string().into()),
                    ]),
                }
            })
            .collect();
        JsonValue::obj([
            ("tasks", JsonValue::Arr(tasks)),
            ("generated", self.outcome.generated.into()),
            ("refused", self.outcome.refused.into()),
        ])
    }
}

/// Headline metrics of one run: the stable triple every client wants
/// (`edp` is [`dae_runtime::RunReport::edp`]'s product).
fn headline(time_s: f64, energy_j: f64) -> JsonValue {
    JsonValue::obj([
        ("time_s", time_s.into()),
        ("energy_j", energy_j.into()),
        ("edp", (time_s * energy_j).into()),
    ])
}

/// Best-effort text of a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.as_str()
    } else {
        "non-string panic payload"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::parse_request;

    const STREAM: &str = "\
global g0 a : 4096 x f64

task fn stream(arg0: i64) {
bb0:
  jump bb1(0)
bb1(bb1p0: i64):
  v0: bool = icmp lt bb1p0, 1024
  br v0, bb2, bb3
bb2:
  v1: i64 = iadd arg0, bb1p0
  v2: i64 = imul v1, 8
  v3: ptr = ptradd @g0, v2
  v4: f64 = load v3
  v5: f64 = fmul v4, 2.0
  store v3, v5
  v6: i64 = iadd bb1p0, 1
  jump bb1(v6)
bb3:
  ret
}
";

    /// Modules whose every simulation ends early, each leaving a partly
    /// used cache model behind on its thread: the step budget running out,
    /// a trap, and a load far outside the globals (a handler panic).
    const FAILING: [(&str, &str); 3] = [
        ("task fn spin() {\nbb0:\n  jump bb1\nbb1:\n  jump bb1\n}\n", "sim.step-limit"),
        (
            "global g0 a : 64 x i64\n\ntask fn div(arg0: i64) {\nbb0:\n  v0: ptr = ptradd @g0, 0\n  \
             v1: i64 = load v0\n  v2: i64 = idiv arg0, v1\n  store v0, v2\n  ret\n}\n",
            "sim.trap",
        ),
        (
            "global g0 a : 64 x f64\n\ntask fn wild(arg0: i64) {\nbb0:\n  v0: ptr = ptradd @g0, 0\n  \
             v1: f64 = load v0\n  v2: ptr = ptradd @g0, 1099511627776\n  v3: f64 = load v2\n  \
             store v0, v3\n  ret\n}\n",
            codes::INTERNAL,
        ),
    ];

    fn req(json: &str) -> Request {
        parse_request(json).expect("valid request")
    }

    fn run_req(op: &str) -> Request {
        let frame = JsonValue::obj([
            ("id", 1u64.into()),
            ("op", op.into()),
            ("ir", STREAM.into()),
            ("hints", JsonValue::Arr(vec![64u64.into()])),
        ]);
        req(&frame.to_json_string())
    }

    #[test]
    fn compile_run_report_share_one_cache_and_stay_deterministic() {
        let engine = Engine::new(&EngineConfig::default());
        let cold = engine.handle(&run_req("compile")).unwrap();
        let warm = engine.handle(&run_req("compile")).unwrap();
        assert_eq!(
            cold.to_json_string(),
            warm.to_json_string(),
            "cache temperature must be invisible"
        );
        assert!(cold.get("module").unwrap().as_str().unwrap().contains("stream__access"));
        // The warm compile was served from the response cache without
        // touching the driver again (one artifact miss total).
        let stats = engine.cache_json();
        assert_eq!(stats.get("resp_hits").unwrap().as_f64(), Some(1.0));
        assert_eq!(stats.get("resp_misses").unwrap().as_f64(), Some(1.0));
        assert_eq!(stats.get("misses").unwrap().as_f64(), Some(1.0));
        assert_eq!(stats.get("mem_hits").unwrap().as_f64(), Some(0.0));
        assert!(stats.get("resp_used_bytes").unwrap().as_f64().unwrap() > 0.0);
        // Report + run also answer.
        let rep = engine.handle(&run_req("report")).unwrap();
        let t = &rep.get("tasks").unwrap().as_arr().unwrap()[0];
        assert_eq!(t.get("strategy").unwrap().as_str(), Some("polyhedral"));
        let run = engine.handle(&run_req("run")).unwrap();
        assert_eq!(run.get("policy").unwrap().as_str(), Some("dae-optimal"));
        let per = &run.get("tasks").unwrap().as_arr().unwrap()[0];
        assert!(per.get("dae").unwrap().get("edp").unwrap().as_f64().unwrap() > 0.0);
        assert!(run.get("report").unwrap().get("time_s").unwrap().as_f64().unwrap() > 0.0);
        assert!(run.get("report").unwrap().get("compile").is_none(), "no volatile counters");
    }

    #[test]
    fn engine_responses_match_a_fresh_engine_per_request() {
        let shared = Engine::new(&EngineConfig::default());
        let fail = |ir: &str, code: &str| {
            let frame =
                JsonValue::obj([("id", 1u64.into()), ("op", "run".into()), ("ir", ir.into())]);
            let e = shared.handle(&req(&frame.to_json_string())).unwrap_err();
            assert_eq!(e.code, code);
        };
        for (round, op) in ["compile", "report", "run", "run"].into_iter().enumerate() {
            // The second `run` round differs from the first in a hint, so it
            // is simulated (not answered from the response cache) on state
            // the failures before it have used.
            let frame = JsonValue::obj([
                ("id", 1u64.into()),
                ("op", op.into()),
                ("ir", STREAM.into()),
                ("hints", JsonValue::Arr(vec![(64 + round as u64).into()])),
            ]);
            let request = req(&frame.to_json_string());
            let warmup = shared.handle(&request).unwrap();
            for (ir, code) in FAILING {
                fail(ir, code);
            }
            let again = shared.handle(&request).unwrap();
            let fresh = Engine::new(&EngineConfig::default()).handle(&request).unwrap();
            assert_eq!(warmup.to_json_string(), fresh.to_json_string(), "op {op} cold == shared");
            assert_eq!(again.to_json_string(), fresh.to_json_string(), "op {op} warm == cold");
        }
    }

    #[test]
    fn layer_errors_surface_with_stable_codes() {
        let engine = Engine::new(&EngineConfig::default());
        let e = engine.handle(&req(r#"{"id":1,"op":"compile","ir":"task fn"}"#)).unwrap_err();
        assert_eq!(e.code, "ir.parse");
        let e = engine
            .handle(&req(r#"{"id":1,"op":"compile","ir":"fn helper() {\nbb0:\n  ret\n}\n"}"#))
            .unwrap_err();
        assert_eq!(e.code, codes::BAD_REQUEST, "no tasks");
        for policy in
            ["warp-speed", "coupled-fixed:nan", "coupled-fixed:1e999", "dae-phases:NaN,-inf"]
        {
            let frame = JsonValue::obj([
                ("id", 1u64.into()),
                ("op", "run".into()),
                ("ir", STREAM.into()),
                ("policy", policy.into()),
            ]);
            let e = engine.handle(&req(&frame.to_json_string())).unwrap_err();
            assert_eq!(e.code, codes::BAD_REQUEST, "bad policy `{policy}`");
        }
    }

    /// Two tasks over separate globals: a polyhedral stream and a
    /// skeleton gather.
    const TWO_TASKS: &str = "\
global g0 a : 4096 x f64
global g1 x : 8192 x f64
global g2 idx : 2048 x i64

task fn stream(arg0: i64) {
bb0:
  jump bb1(0)
bb1(bb1p0: i64):
  v0: bool = icmp lt bb1p0, 512
  br v0, bb2, bb3
bb2:
  v1: i64 = iadd arg0, bb1p0
  v2: i64 = imul v1, 8
  v3: ptr = ptradd @g0, v2
  v4: f64 = load v3
  v5: f64 = fmul v4, 2.0
  store v3, v5
  v6: i64 = iadd bb1p0, 1
  jump bb1(v6)
bb3:
  ret
}

task fn gather(arg0: i64) {
bb0:
  jump bb1(0)
bb1(bb1p0: i64):
  v0: bool = icmp lt bb1p0, arg0
  br v0, bb2, bb3
bb2:
  v1: i64 = imul bb1p0, 8
  v2: ptr = ptradd @g2, v1
  v3: i64 = load v2
  v4: i64 = imul v3, 8
  v5: ptr = ptradd @g1, v4
  v6: f64 = load v5
  v7: ptr = ptradd @g1, v1
  store v7, v6
  v8: i64 = iadd bb1p0, 1
  jump bb1(v8)
bb3:
  ret
}
";

    fn run_frame(ir: &str, hints: &[u64], policy: Option<&str>) -> Request {
        let mut fields = vec![
            ("id", 1u64.into()),
            ("op", "run".into()),
            ("ir", ir.into()),
            ("hints", JsonValue::Arr(hints.iter().map(|&h| h.into()).collect())),
        ];
        if let Some(p) = policy {
            fields.push(("policy", p.into()));
        }
        req(&JsonValue::obj(fields).to_json_string())
    }

    fn counter(engine: &Engine, name: &str) -> f64 {
        engine.cache_json().get(name).and_then(JsonValue::as_f64).expect("cache counter")
    }

    #[test]
    fn the_coupled_baseline_is_simulated_once_per_module_hints_and_task() {
        const GHZ: [&str; 6] = ["1.6", "2.0", "2.4", "2.8", "3.2", "3.4"];
        let mut policies: Vec<Option<String>> = GHZ
            .iter()
            .flat_map(|a| GHZ.iter().map(move |e| Some(format!("dae-phases:{a},{e}"))))
            .collect();
        policies.push(None);
        policies.extend(["dae-minmax", "coupled-max", "governed:bandit:7"].map(|p| Some(p.into())));
        assert_eq!(policies.len(), 40);
        let shared = Engine::new(&EngineConfig::default());
        let (mut task_runs, mut keys) = (0, 0);
        // Policy-major, so every (module, hints) pair is revisited after the
        // others have run in between.
        for policy in &policies {
            for (ir, tasks) in [(STREAM, 1), (TWO_TASKS, 2)] {
                for hint in [64, 128] {
                    let request = run_frame(ir, &[hint], policy.as_deref());
                    let got = shared.handle(&request).unwrap().to_json_string();
                    let fresh = Engine::new(&EngineConfig::default());
                    let want = fresh.handle(&request).unwrap().to_json_string();
                    assert_eq!(got, want, "policy {policy:?}, hint {hint}: memo == fresh engine");
                    assert_eq!(counter(&fresh, "baseline_misses"), tasks as f64);
                    task_runs += tasks;
                    if policy == &policies[0] {
                        keys += tasks;
                    }
                }
            }
        }
        assert_eq!(keys, 6, "tasks × distinct (text, hints)");
        assert_eq!(counter(&shared, "baseline_misses"), keys as f64);
        assert_eq!(counter(&shared, "baseline_hits"), (task_runs - keys) as f64);
        let used = counter(&shared, "baseline_used_bytes");
        assert_eq!(used, (keys * BASELINE_ENTRY_BYTES) as f64);
        // A baseline that fails or panics stores nothing: every policy
        // simulates it again and fails the same way.
        for (ir, code) in FAILING {
            let misses = counter(&shared, "baseline_misses");
            for policy in ["dae-minmax", "coupled-max"] {
                let e = shared.handle(&run_frame(ir, &[], Some(policy))).unwrap_err();
                assert_eq!(e.code, code, "{policy}");
            }
            assert_eq!(counter(&shared, "baseline_misses"), misses + 2.0, "{code}: two misses");
            assert_eq!(counter(&shared, "baseline_used_bytes"), used, "{code}: nothing stored");
        }
        assert_eq!(counter(&shared, "baseline_hits"), (task_runs - keys) as f64);
    }

    #[test]
    fn huge_globals_are_refused_before_allocation() {
        let engine = Engine::new(&EngineConfig::default());
        let ir = "global g0 big : 9000000000000000 x f64\n\n\
                  task fn t() {\nbb0:\n  v0: ptr = ptradd @g0, 0\n  store v0, 1.0\n  ret\n}\n";
        let frame = JsonValue::obj([("id", 1u64.into()), ("op", "run".into()), ("ir", ir.into())]);
        let e = engine.handle(&req(&frame.to_json_string())).unwrap_err();
        assert_eq!(e.code, codes::MODULE_TOO_LARGE);
    }
}
