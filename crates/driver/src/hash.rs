//! Stable structural hashing for incremental-cache keys.
//!
//! The cache key of one task compilation is an FNV-1a-64 digest over
//! everything the generated artifact depends on:
//!
//! * the **printed IR** of the task function and of every function it
//!   (transitively) calls — the printer is deterministic and captures the
//!   full structure, so any semantic change changes the key. Each function
//!   is printed into one reused buffer, never into a `String` of its own;
//! * the module's **global declarations** (id, name, length, element type)
//!   — delinearisation and address generation read them; initial *values*
//!   are excluded because generation never does;
//! * every field of the [`CompilerOptions`] in a fixed order;
//! * the **pipeline fingerprint** ([`Pipeline::fingerprint`]), so
//!   artifacts produced by a different stage sequence (or a future
//!   artifact-schema revision) never alias.
//!
//! The digest is [`dae_trace::Fnv64`], not `std::hash::Hasher`: these keys
//! name on-disk artifacts that must survive toolchain upgrades.

use std::fmt::Write;

use dae_core::{CompilerOptions, STAGES};
use dae_ir::{print_function_into, FuncId, InstKind, Module};
use dae_trace::Fnv64;

/// The identity of the sequence the driver compiles every task through,
/// [`dae_core::generate_access_with`]: its stages ([`dae_core::STAGES`])
/// under the name `dae-access`. Stateless; it exists for its
/// [`Pipeline::fingerprint`], which is part of every cache key.
#[derive(Clone, Copy, Debug)]
pub struct Pipeline;

impl Pipeline {
    /// The driver's sequence: `inline → optimize → refine → analyze →
    /// generate`.
    pub fn standard() -> Pipeline {
        Pipeline
    }

    /// The stage names, in execution order (the names of the driver's
    /// [`PassSpan`](crate::PassSpan)s).
    pub fn pass_names(&self) -> Vec<&'static str> {
        STAGES.to_vec()
    }

    /// A stable digest of the pipeline identity (name, stage sequence, and
    /// the on-disk artifact schema revision). Part of every cache key:
    /// artifacts from a different pipeline or schema never alias.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_str(crate::cache::ARTIFACT_SCHEMA);
        h.write_str("dae-access");
        h.write_u64(STAGES.len() as u64);
        for stage in STAGES {
            h.write_str(stage);
        }
        h.finish()
    }
}

/// Functions reachable from `root` through `call` instructions, `root`
/// first, then callees in deterministic first-encounter (pre-order) order.
fn reachable_funcs(module: &Module, root: FuncId) -> Vec<FuncId> {
    let mut order = vec![root];
    let mut cursor = 0;
    while cursor < order.len() {
        let f = module.func(order[cursor]);
        cursor += 1;
        f.for_each_placed_inst(|_, inst| {
            if let InstKind::Call { callee, .. } = &f.inst(inst).kind {
                if !order.contains(callee) {
                    order.push(*callee);
                }
            }
        });
    }
    order
}

/// Absorbs every [`CompilerOptions`] field, in declaration order.
fn write_options(h: &mut Fnv64, opts: &CompilerOptions) {
    // Field-by-field so a new knob cannot silently alias old artifacts —
    // extend this list when CompilerOptions grows.
    let CompilerOptions {
        enable_polyhedral,
        cfg_simplify,
        line_dedup,
        hull_threshold,
        prefetch_writes,
        param_hints,
        skip_hull_check,
    } = opts;
    h.write_bool(*enable_polyhedral);
    h.write_bool(*cfg_simplify);
    h.write_bool(*line_dedup);
    h.write_i64(*hull_threshold);
    h.write_bool(*prefetch_writes);
    h.write_u64(param_hints.len() as u64);
    for &v in param_hints {
        h.write_i64(v);
    }
    h.write_bool(*skip_hull_check);
}

/// The content-addressed cache key of compiling `task` under `opts` with
/// the pipeline identified by `pipeline_fingerprint`.
pub fn task_key(
    module: &Module,
    task: FuncId,
    opts: &CompilerOptions,
    pipeline_fingerprint: u64,
) -> u64 {
    let mut h = Fnv64::new();
    h.write_str("dae-driver-key/1");
    h.write_u64(pipeline_fingerprint);
    // One buffer for every printed function and global id.
    let mut text = String::new();
    for f in reachable_funcs(module, task) {
        text.clear();
        print_function_into(&mut text, module.func(f), Some(module));
        h.write_str(&text);
    }
    h.write_u64(module.num_globals() as u64);
    for (id, g) in module.globals() {
        text.clear();
        let _ = write!(text, "{id}");
        h.write_str(&text);
        h.write_str(&g.name);
        h.write_u64(g.len);
        h.write_str(g.elem_ty.name());
    }
    write_options(&mut h, opts);
    h.finish()
}

/// Folds a profile's content hash into a base [`task_key`]: the cache key
/// of a **profile-refined** compilation. Refined artifacts therefore
/// never alias the static ones, and a profile change re-keys (and so
/// recompiles) the task — an artifact can never go stale against the
/// profile that shaped it. With no profile the base key is used directly,
/// keeping the static pipeline's cache behaviour byte-identical.
pub(crate) fn refined_key(base: u64, profile_hash: u64) -> u64 {
    let mut h = Fnv64::new();
    h.write_str("dae-pgo-refined/1");
    h.write_u64(base);
    h.write_u64(profile_hash);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dae_ir::{FunctionBuilder, Type, UnOp, Value};

    fn module_with_task(scale: i64) -> (Module, FuncId) {
        let mut m = Module::new();
        let a = m.add_global("a", Type::F64, 128);
        let mut b = FunctionBuilder::new("t", vec![Type::I64], Type::Void);
        b.set_task();
        b.counted_loop(Value::i64(0), Value::Arg(0), Value::i64(1), |b, i| {
            let x = b.imul(i, scale);
            let p = b.elem_addr(Value::Global(a), x, Type::F64);
            let _ = b.load(Type::F64, p);
        });
        b.ret(None);
        let t = m.add_function(b.finish());
        (m, t)
    }

    /// The fingerprint every disk artifact and stored profile was keyed
    /// under since the artifact schema's last revision: a change here
    /// orphans all of them.
    #[test]
    fn fingerprint_is_pinned() {
        assert_eq!(Pipeline::standard().fingerprint(), 0x3c1c_a4c4_a3a1_95fb);
        assert_eq!(
            Pipeline::standard().pass_names(),
            ["inline", "optimize", "refine", "analyze", "generate"]
        );
    }

    #[test]
    fn key_is_deterministic_and_content_sensitive() {
        let (m1, t1) = module_with_task(1);
        let (m2, t2) = module_with_task(1);
        let (m3, t3) = module_with_task(2);
        let opts = CompilerOptions { param_hints: vec![64], ..Default::default() };
        let k1 = task_key(&m1, t1, &opts, 7);
        assert_eq!(k1, task_key(&m2, t2, &opts, 7), "same content, same key");
        assert_ne!(k1, task_key(&m3, t3, &opts, 7), "different IR, different key");
        assert_ne!(k1, task_key(&m1, t1, &opts, 8), "different pipeline, different key");
        let other = CompilerOptions { param_hints: vec![65], ..Default::default() };
        assert_ne!(k1, task_key(&m1, t1, &other, 7), "different options, different key");
    }

    /// A task calling a leaf function, over one global of `glen` floats.
    fn module_with_callee(leaf_scale: i64, glen: u64) -> (Module, FuncId) {
        let mut m = Module::new();
        let a = m.add_global("a", Type::F64, glen);
        let mut lb = FunctionBuilder::new("leaf", vec![Type::I64], Type::I64);
        let v = lb.imul(Value::Arg(0), leaf_scale);
        lb.ret(Some(v));
        let leaf = m.add_function(lb.finish());
        let mut b = FunctionBuilder::new("t", vec![Type::I64], Type::Void);
        b.set_task();
        let x = b.call(leaf, vec![Value::Arg(0)], Type::I64).expect("non-void call");
        let p = b.elem_addr(Value::Global(a), x, Type::F64);
        let _ = b.load(Type::F64, p);
        b.ret(None);
        let t = m.add_function(b.finish());
        (m, t)
    }

    /// A gather `a[idx[i]] = -a[idx[i]]` over four globals of every
    /// storable type, more than ten of them so ids reach two digits.
    fn module_with_globals() -> (Module, FuncId) {
        let mut m = Module::new();
        let a = m.add_global("a", Type::F64, 4096);
        let idx = m.add_global("idx", Type::I64, 512);
        m.add_global("flag", Type::Bool, 1);
        m.add_global("next", Type::Ptr, 64);
        for k in 0..8 {
            m.add_global(format!("pad{k}"), Type::I64, 1 << k);
        }
        let mut b = FunctionBuilder::new("gather", vec![Type::I64], Type::Void);
        b.set_task();
        b.counted_loop(Value::i64(0), Value::Arg(0), Value::i64(1), |b, i| {
            let pi = b.elem_addr(Value::Global(idx), i, Type::I64);
            let j = b.load(Type::I64, pi);
            let pa = b.elem_addr(Value::Global(a), j, Type::F64);
            let x = b.load(Type::F64, pa);
            let y = b.unary(UnOp::FNeg, x);
            b.store(pa, y);
        });
        b.ret(None);
        let t = m.add_function(b.finish());
        (m, t)
    }

    /// The keys name on-disk artifacts and stored profiles: the bytes they
    /// hash may not drift. Values recorded when each key still printed
    /// into a `String` of its own.
    #[test]
    fn keys_are_pinned() {
        let opts = CompilerOptions { param_hints: vec![64], ..Default::default() };
        let (m, t) = module_with_callee(3, 128);
        assert_eq!(task_key(&m, t, &opts, 7), 0x79eb_7edd_4040_e0f4);
        let (m, t) = module_with_globals();
        assert_eq!(task_key(&m, t, &opts, 7), 0xf5ba_046a_06b5_29f4);
    }

    #[test]
    fn key_covers_callees_and_globals() {
        let opts = CompilerOptions::default();
        let (m1, t1) = module_with_callee(1, 128);
        let (m2, t2) = module_with_callee(2, 128);
        let (m3, t3) = module_with_callee(1, 256);
        assert_ne!(
            task_key(&m1, t1, &opts, 0),
            task_key(&m2, t2, &opts, 0),
            "callee body is part of the key"
        );
        assert_ne!(
            task_key(&m1, t1, &opts, 0),
            task_key(&m3, t3, &opts, 0),
            "global declarations are part of the key"
        );
    }
}
