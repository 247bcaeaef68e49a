//! The content-addressed incremental compilation cache.
//!
//! Artifacts — one per `(task IR, callees, globals, options, pipeline)`
//! key from [`crate::hash::task_key`] — live in two tiers:
//!
//! * an **in-memory LRU** tier holding already-parsed artifacts, bounded
//!   by approximate bytes
//!   ([`DriverConfig::mem_max_bytes`](crate::DriverConfig::mem_max_bytes))
//!   so a long-running server cannot grow without limit;
//! * an optional **on-disk** tier (`--cache-dir`): one JSON file per key,
//!   the function body stored as printed IR and re-parsed on load. Both
//!   the printer and the generators end in a dense `compact`, so
//!   print → parse → print is a fixed point and a disk round-trip
//!   reproduces the function byte-for-byte.
//!
//! Disk IO is strictly best-effort: an unreadable, unparsable, or
//! wrong-schema file is treated as a miss (and counted as one), never an
//! error — a corrupted cache can cost time, not correctness.

use std::path::{Path, PathBuf};

use dae_core::{AffineStats, RefuseReason, Strategy, TaskAccessInfo};
use dae_ir::parse::parse_module;
use dae_ir::{print_function, Function};
use dae_trace::json::{parse, JsonValue};
use dae_trace::{write_atomic, Lru};

/// Schema tag of on-disk artifacts. Bump on any layout change — the tag is
/// part of the pipeline fingerprint, so old artifacts simply stop matching.
pub const ARTIFACT_SCHEMA: &str = "dae-driver-artifact/1";

/// The cacheable part of a task's access analysis: every scalar from
/// [`TaskAccessInfo`] except the per-access descriptors, which only the
/// generator itself consumes (and it has already run).
#[derive(Clone, Debug, PartialEq)]
pub struct InfoSummary {
    /// Total loads encountered.
    pub total_loads: usize,
    /// Loads without a complete affine description.
    pub non_affine_loads: usize,
    /// Loops in the task, total.
    pub loops_total: usize,
    /// Loops in which every contained load is affine.
    pub loops_affine: usize,
    /// True when the task has data-dependent control flow.
    pub has_data_dependent_cf: bool,
}

impl InfoSummary {
    /// The cacheable summary of a full analysis.
    pub fn of(info: &TaskAccessInfo) -> InfoSummary {
        InfoSummary {
            total_loads: info.total_loads,
            non_affine_loads: info.non_affine_loads,
            loops_total: info.loops_total,
            loops_affine: info.loops_affine,
            has_data_dependent_cf: info.has_data_dependent_cf,
        }
    }

    /// Rehydrates a [`TaskAccessInfo`] (with empty per-access descriptors).
    pub fn into_info(self) -> TaskAccessInfo {
        TaskAccessInfo {
            affine: Vec::new(),
            total_loads: self.total_loads,
            non_affine_loads: self.non_affine_loads,
            loops_total: self.loops_total,
            loops_affine: self.loops_affine,
            has_data_dependent_cf: self.has_data_dependent_cf,
        }
    }

    fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("total_loads", (self.total_loads).into()),
            ("non_affine_loads", (self.non_affine_loads).into()),
            ("loops_total", (self.loops_total).into()),
            ("loops_affine", (self.loops_affine).into()),
            ("has_data_dependent_cf", self.has_data_dependent_cf.into()),
        ])
    }

    fn from_json(v: &JsonValue) -> Option<InfoSummary> {
        let usize_of = |k: &str| v.get(k)?.as_f64().map(|f| f as usize);
        Some(InfoSummary {
            total_loads: usize_of("total_loads")?,
            non_affine_loads: usize_of("non_affine_loads")?,
            loops_total: usize_of("loops_total")?,
            loops_affine: usize_of("loops_affine")?,
            has_data_dependent_cf: v.get("has_data_dependent_cf")?.as_bool()?,
        })
    }
}

/// One cached compilation result: either the generated access function or
/// the (deterministic) refusal.
#[derive(Clone, Debug)]
pub enum Artifact {
    /// Generation succeeded.
    Generated {
        /// The access function.
        func: Function,
        /// Which §5 path produced it.
        strategy: Strategy,
        /// Scalars of the task's access analysis.
        info: InfoSummary,
    },
    /// Generation was refused; the task runs coupled.
    Refused {
        /// Why.
        reason: RefuseReason,
    },
}

impl Artifact {
    /// Serialises the artifact (schema [`ARTIFACT_SCHEMA`]).
    pub fn to_json(&self) -> JsonValue {
        match self {
            Artifact::Generated { func, strategy, info } => {
                let mut pairs = vec![
                    ("schema", JsonValue::from(ARTIFACT_SCHEMA)),
                    ("kind", "generated".into()),
                    // Access functions reference globals positionally
                    // (`@gN`), which the parser resolves without global
                    // declarations in scope.
                    ("func", print_function(func, None).into()),
                ];
                match strategy {
                    Strategy::Polyhedral(s) => {
                        pairs.push(("strategy", "polyhedral".into()));
                        pairs.push((
                            "stats",
                            JsonValue::obj([
                                ("n_orig", s.n_orig.into()),
                                ("n_conv_un", s.n_conv_un.into()),
                                ("classes", s.classes.into()),
                                ("nests", s.nests.into()),
                                ("orig_depth", s.orig_depth.into()),
                                ("gen_depth", s.gen_depth.into()),
                            ]),
                        ));
                    }
                    Strategy::Skeleton => pairs.push(("strategy", "skeleton".into())),
                }
                pairs.push(("info", info.to_json()));
                JsonValue::obj(pairs)
            }
            Artifact::Refused { reason } => {
                let (tag, detail) = match reason {
                    RefuseReason::NonInlinableCall(name) => {
                        ("non-inlinable-call", Some(name.as_str()))
                    }
                    RefuseReason::ControlDependsOnTaskWrites => {
                        ("control-depends-on-task-writes", None)
                    }
                    RefuseReason::NothingToPrefetch => ("nothing-to-prefetch", None),
                };
                let mut pairs = vec![
                    ("schema", JsonValue::from(ARTIFACT_SCHEMA)),
                    ("kind", "refused".into()),
                    ("reason", tag.into()),
                ];
                if let Some(d) = detail {
                    pairs.push(("detail", d.into()));
                }
                JsonValue::obj(pairs)
            }
        }
    }

    /// Deserialises an artifact; `None` on any mismatch (wrong schema,
    /// malformed IR, unknown tags).
    pub fn from_json(v: &JsonValue) -> Option<Artifact> {
        if v.get("schema")?.as_str()? != ARTIFACT_SCHEMA {
            return None;
        }
        match v.get("kind")?.as_str()? {
            "generated" => {
                let text = v.get("func")?.as_str()?;
                let module = parse_module(text).ok()?;
                let (_, func) = module.funcs().next()?;
                let strategy = match v.get("strategy")?.as_str()? {
                    "skeleton" => Strategy::Skeleton,
                    "polyhedral" => {
                        let s = v.get("stats")?;
                        let u64_of = |k: &str| s.get(k)?.as_f64().map(|f| f as u64);
                        let usize_of = |k: &str| s.get(k)?.as_f64().map(|f| f as usize);
                        Strategy::Polyhedral(AffineStats {
                            n_orig: u64_of("n_orig")?,
                            n_conv_un: u64_of("n_conv_un")?,
                            classes: usize_of("classes")?,
                            nests: usize_of("nests")?,
                            orig_depth: usize_of("orig_depth")?,
                            gen_depth: usize_of("gen_depth")?,
                        })
                    }
                    _ => return None,
                };
                Some(Artifact::Generated {
                    func: func.clone(),
                    strategy,
                    info: InfoSummary::from_json(v.get("info")?)?,
                })
            }
            "refused" => {
                let reason = match v.get("reason")?.as_str()? {
                    "non-inlinable-call" => {
                        RefuseReason::NonInlinableCall(v.get("detail")?.as_str()?.to_string())
                    }
                    "control-depends-on-task-writes" => RefuseReason::ControlDependsOnTaskWrites,
                    "nothing-to-prefetch" => RefuseReason::NothingToPrefetch,
                    _ => return None,
                };
                Some(Artifact::Refused { reason })
            }
            _ => None,
        }
    }
}

/// Monotonic cache counters (totals since construction).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the in-memory tier.
    pub mem_hits: u64,
    /// Lookups answered from the on-disk tier.
    pub disk_hits: u64,
    /// Lookups answered by neither tier.
    pub misses: u64,
    /// Artifacts evicted from the in-memory tier.
    pub evictions: u64,
    /// Artifacts written to the on-disk tier.
    pub disk_writes: u64,
}

impl CacheStats {
    /// Total hits across both tiers.
    pub fn hits(&self) -> u64 {
        self.mem_hits + self.disk_hits
    }

    /// The counter increments since `earlier` (a previous snapshot).
    pub fn delta(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            mem_hits: self.mem_hits - earlier.mem_hits,
            disk_hits: self.disk_hits - earlier.disk_hits,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
            disk_writes: self.disk_writes - earlier.disk_writes,
        }
    }
}

/// Approximate in-memory footprint of an artifact, in bytes.
///
/// The canonical size of a generated artifact is its printed IR — the
/// same text the disk tier stores — plus a fixed allowance for the parsed
/// structure. "Approximate" is the contract: the bound protects a
/// long-running server from unbounded growth, it is not an allocator
/// audit.
pub fn artifact_approx_bytes(artifact: &Artifact) -> usize {
    const FIXED: usize = 128;
    match artifact {
        Artifact::Generated { func, .. } => {
            // Printed text once on insert; generation itself dwarfs this.
            FIXED + 2 * print_function(func, None).len()
        }
        Artifact::Refused { reason } => {
            FIXED
                + match reason {
                    RefuseReason::NonInlinableCall(name) => name.len(),
                    _ => 0,
                }
        }
    }
}

/// The two-tier artifact cache.
pub struct Cache {
    /// The in-memory tier, bounded by **approximate bytes**
    /// ([`artifact_approx_bytes`]) rather than entry count, so a
    /// long-running server's footprint does not scale with how large the
    /// cached functions happen to be.
    mem: Lru<Artifact>,
    dir: Option<PathBuf>,
    stats: CacheStats,
}

impl Cache {
    /// A cache with an in-memory tier of at most `mem_max_bytes`
    /// approximate bytes and an optional on-disk tier rooted at `dir`.
    pub fn new(mem_max_bytes: usize, dir: Option<&Path>) -> Cache {
        Cache {
            mem: Lru::new(mem_max_bytes),
            dir: dir.map(Path::to_path_buf),
            stats: CacheStats::default(),
        }
    }

    /// Approximate bytes currently held by the in-memory tier.
    pub fn mem_used_bytes(&self) -> usize {
        self.mem.used_bytes()
    }

    fn artifact_path(dir: &Path, key: u64) -> PathBuf {
        dir.join(format!("{key:016x}.json"))
    }

    /// Looks `key` up: memory first, then disk (promoting the artifact into
    /// memory). Counts exactly one of `mem_hits` / `disk_hits` / `misses`.
    pub fn lookup(&mut self, key: u64) -> Option<Artifact> {
        if let Some(a) = self.mem.get(key) {
            self.stats.mem_hits += 1;
            return Some(a.clone());
        }
        if let Some(dir) = &self.dir {
            // Validation happens *before* counting the hit: an unreadable
            // or malformed file must count as a miss, not a hit.
            let loaded = std::fs::read_to_string(Self::artifact_path(dir, key))
                .ok()
                .and_then(|text| parse(&text).ok())
                .and_then(|v| Artifact::from_json(&v));
            if let Some(a) = loaded {
                self.stats.disk_hits += 1;
                self.stats.evictions += self.remember(key, a.clone());
                return Some(a);
            }
        }
        self.stats.misses += 1;
        None
    }

    /// Stores an artifact under `key` in both tiers. Disk IO is
    /// best-effort; a failed write is silently skipped.
    ///
    /// The disk write is **atomic**: the JSON goes to a unique temp file
    /// in the cache directory and is renamed into place, so a worker
    /// killed mid-write can never leave a torn artifact for a later
    /// validate-before-count lookup to reject.
    pub fn insert(&mut self, key: u64, artifact: Artifact) {
        if let Some(dir) = &self.dir {
            let ok = std::fs::create_dir_all(dir).is_ok()
                && write_atomic(
                    &Self::artifact_path(dir, key),
                    artifact.to_json().to_json_string().as_bytes(),
                )
                .is_ok();
            if ok {
                self.stats.disk_writes += 1;
            }
        }
        self.stats.evictions += self.remember(key, artifact);
    }

    /// Puts an artifact in the memory tier; returns the evictions forced.
    fn remember(&mut self, key: u64, artifact: Artifact) -> u64 {
        let bytes = artifact_approx_bytes(&artifact);
        self.mem.insert(key, artifact, bytes)
    }

    /// The monotonic counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dae_core::{generate_access, CompilerOptions};
    use dae_ir::{FunctionBuilder, Module, Type, Value};

    fn generated_artifact() -> Artifact {
        let mut m = Module::new();
        let a = m.add_global("a", Type::F64, 256);
        let mut b = FunctionBuilder::new("stream", vec![Type::I64], Type::Void);
        b.set_task();
        b.counted_loop(Value::i64(0), Value::i64(64), Value::i64(1), |b, i| {
            let p = b.elem_addr(Value::Global(a), i, Type::F64);
            let v = b.load(Type::F64, p);
            let w = b.fmul(v, 2.0f64);
            b.store(p, w);
        });
        b.ret(None);
        let t = m.add_function(b.finish());
        let opts = CompilerOptions { param_hints: vec![64], ..Default::default() };
        let g = generate_access(&m, t, &opts).expect("generates");
        Artifact::Generated { func: g.func, strategy: g.strategy, info: InfoSummary::of(&g.info) }
    }

    #[test]
    fn artifact_json_round_trips_bytewise() {
        let a = generated_artifact();
        let text = a.to_json().to_json_string();
        let b = Artifact::from_json(&parse(&text).unwrap()).expect("parses");
        // The IR printer is the canonical form: one round-trip must be the
        // fixed point, or disk-cached compiles would not be byte-identical.
        assert_eq!(text, b.to_json().to_json_string());
        let r = Artifact::Refused { reason: RefuseReason::NonInlinableCall("f".into()) };
        let rt = r.to_json().to_json_string();
        let r2 = Artifact::from_json(&parse(&rt).unwrap()).expect("parses");
        assert_eq!(rt, r2.to_json().to_json_string());
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let mut v = generated_artifact().to_json();
        if let JsonValue::Obj(pairs) = &mut v {
            pairs[0].1 = JsonValue::from("dae-driver-artifact/0");
        }
        assert!(Artifact::from_json(&v).is_none());
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let a = || Artifact::Refused { reason: RefuseReason::NothingToPrefetch };
        // A refusal is ~128 approximate bytes; budget exactly two of them.
        let two = 2 * artifact_approx_bytes(&a());
        let mut c = Cache::new(two, None);
        c.insert(1, a());
        c.insert(2, a());
        assert!(c.lookup(1).is_some(), "refresh key 1");
        c.insert(3, a()); // evicts 2, the least recently used
        assert!(c.lookup(1).is_some());
        assert!(c.lookup(3).is_some());
        assert!(c.lookup(2).is_none());
        let s = c.stats();
        assert_eq!((s.mem_hits, s.misses, s.evictions), (3, 1, 1));
        assert!(c.mem_used_bytes() <= two);
    }

    #[test]
    fn byte_budget_bounds_the_memory_tier() {
        let g = generated_artifact();
        let bytes = artifact_approx_bytes(&g);
        assert!(bytes > 128, "generated artifacts account their printed IR");
        // Budget for ~3 generated artifacts: inserting 10 distinct keys
        // keeps usage under the budget and evicts the rest.
        let mut c = Cache::new(3 * bytes, None);
        for key in 0..10u64 {
            c.insert(key, g.clone());
        }
        assert!(c.mem_used_bytes() <= 3 * bytes);
        assert_eq!(c.stats().evictions, 7);
        // Most-recent keys survive; oldest were evicted.
        assert!(c.lookup(9).is_some());
        assert!(c.lookup(0).is_none());
        // Re-inserting an existing key replaces, never double-counts.
        let used = c.mem_used_bytes();
        c.insert(9, g.clone());
        assert_eq!(c.mem_used_bytes(), used);
    }

    #[test]
    fn oversized_artifact_still_caches_alone() {
        let g = generated_artifact();
        let mut c = Cache::new(1, None); // 1-byte budget: everything oversized
        c.insert(1, g.clone());
        assert!(c.lookup(1).is_some(), "sole entry is never its own victim");
        c.insert(2, g);
        assert!(c.lookup(2).is_some());
        assert!(c.lookup(1).is_none(), "second insert evicts the first");
    }

    #[test]
    fn disk_tier_survives_a_fresh_cache() {
        let dir = std::env::temp_dir().join(format!("dae-driver-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let key = 0xfeed_beef_u64;
        {
            let mut c = Cache::new(64 << 10, Some(&dir));
            c.insert(key, generated_artifact());
            assert_eq!(c.stats().disk_writes, 1);
        }
        // The atomic write leaves no temp droppings behind.
        for entry in std::fs::read_dir(&dir).unwrap().flatten() {
            let name = entry.file_name();
            assert!(name.to_str().unwrap().ends_with(".json"), "unexpected file {name:?}");
        }
        let mut c = Cache::new(64 << 10, Some(&dir));
        match c.lookup(key) {
            Some(Artifact::Generated { info, .. }) => assert_eq!(info.total_loads, 1),
            other => panic!("expected generated artifact, got {other:?}"),
        }
        let s = c.stats();
        assert_eq!((s.mem_hits, s.disk_hits, s.misses), (0, 1, 0));
        // Promoted into memory: the second lookup is a memory hit.
        assert!(c.lookup(key).is_some());
        assert_eq!(c.stats().mem_hits, 1);
        // A corrupted file is a miss, not an error.
        std::fs::write(Cache::artifact_path(&dir, 7), "{not json").unwrap();
        assert!(c.lookup(7).is_none());
        assert_eq!(c.stats().misses, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
