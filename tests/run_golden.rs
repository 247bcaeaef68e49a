//! Golden `run` output: the serialised results of `run` requests on one
//! long-lived [`Engine`] and the small corpus's [`RunReport`]s, hashed with the workspace's FNV-1a-64
//! and compared against digests recorded on the commit *before* cache-model
//! state was leased per thread and the one-task whole-module run was folded
//! into the task's decoupled run.
//!
//! `crates/runtime/tests/determinism.rs` and the fresh-engine comparisons in
//! `dae-serve` run both of their sides on the same scheduler and the same
//! cache model, so a change that moves both together (a reset that leaves a
//! line behind, a simulation dropped that was not a repeat) is visible only
//! to a recorded digest. Every request below runs on one thread, back to
//! back, so each simulation after the first starts from leased state.
//!
//! The `daec` rows pin what the scheduler's observers see: the
//! `--trace-out` document (the trace sink, and through its report the
//! governor) and the `--profile-out` document (the profile collector) of
//! both example modules, recorded on the commit before the three observers
//! were fed one per-phase record.

use dae_repro::runtime::{run_workload, FreqPolicy, RuntimeConfig};
use dae_repro::serve::load::{corpus_program, CORPUS};
use dae_repro::serve::proto::parse_request;
use dae_repro::serve::{Engine, EngineConfig};
use dae_repro::trace::fnv::{fnv1a, OFFSET};
use dae_repro::trace::json::{parse, JsonValue};
use dae_repro::workloads::{all_benchmarks_small, Variant};

/// Two tasks in one module (an affine stream and a gather, both of which
/// get an access phase): the whole-module run schedules both instances, so
/// it is not a repeat of either task's decoupled run.
const TWO_TASKS: &str = "\
global g0 a : 12288 x f64
global g1 x : 8192 x f64
global g2 idx : 2048 x i64

task fn stream(arg0: i64) {
bb0:
  jump bb1(0)
bb1(bb1p0: i64):
  v0: bool = icmp lt bb1p0, 512
  br v0, bb2, bb3
bb2:
  v1: i64 = imul bb1p0, 3
  v2: i64 = iadd arg0, v1
  v3: i64 = imul v2, 8
  v4: ptr = ptradd @g0, v3
  v5: f64 = load v4
  v6: f64 = fmul v5, 2.0
  store v4, v6
  v7: i64 = iadd bb1p0, 1
  jump bb1(v7)
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

const HINTS: [u64; 4] = [64, 128, 192, 256];
const POLICIES: [Option<&str>; 4] =
    [None, Some("dae-phases:2.0,3.0"), Some("dae-minmax"), Some("coupled-max")];

/// Recorded on the parent commit, in the order the test computes them: one
/// digest per served program (its 16 `run` results chained), then one per
/// small-corpus benchmark (CAE under coupled-max, then Auto-DAE under
/// dae-optimal, chained).
const EXPECTED: [(&str, u64); 16] = [
    ("serve/0", 0xe703_a043_765b_09f5),
    ("serve/1", 0xd2f9_c101_1fc3_e54d),
    ("serve/2", 0x51fa_6434_66fb_f929),
    ("serve/3", 0x5136_69a5_1f5c_7965),
    ("serve/4", 0xe28f_17e5_9f07_4f5d),
    ("serve/5", 0xf4f9_f6b8_ec1c_938d),
    ("serve/6", 0xb632_5a27_4229_c916),
    ("serve/7", 0x74c0_03a0_3dc9_fb29),
    ("serve/two-tasks", 0x2ff0_b2b2_e339_ef38),
    ("corpus/LU", 0xb8d7_0064_68b5_37bc),
    ("corpus/Cholesky", 0xf674_fd91_9b6a_3f4b),
    ("corpus/FFT", 0x6729_ec84_6097_e2f4),
    ("corpus/LBM", 0x48fb_d130_de55_9fbd),
    ("corpus/LibQ", 0xb419_c81a_a766_e9f6),
    ("corpus/Cigar", 0xd3d2_da40_2f5b_98ae),
    ("corpus/CG", 0x2a41_17a4_6418_6a55),
];

#[test]
fn run_results_and_corpus_reports_match_recorded_digests() {
    let mut got: Vec<(String, u64)> = Vec::new();

    let engine = Engine::new(&EngineConfig::default());
    let programs = (0..CORPUS)
        .map(|v| (format!("serve/{v}"), corpus_program(v)))
        .chain([("serve/two-tasks".to_string(), TWO_TASKS.to_string())]);
    for (name, ir) in programs {
        let mut digest = OFFSET;
        for hint in HINTS {
            for policy in POLICIES {
                let mut frame = vec![
                    ("id".to_string(), JsonValue::from(1u64)),
                    ("op".to_string(), "run".into()),
                    ("ir".to_string(), ir.as_str().into()),
                    ("hints".to_string(), JsonValue::Arr(vec![hint.into()])),
                ];
                if let Some(p) = policy {
                    frame.push(("policy".to_string(), p.into()));
                }
                let req = parse_request(&JsonValue::Obj(frame).to_json_string())
                    .expect("generated frame is valid");
                let result = engine
                    .handle_raw(&req)
                    .unwrap_or_else(|e| panic!("{name} hint {hint} {policy:?}: {}", e.code));
                digest = fnv1a(digest, result.as_bytes());
            }
        }
        got.push((name, digest));
    }

    let cae_cfg = RuntimeConfig::paper_default();
    let auto_cfg = RuntimeConfig::paper_default().with_policy(FreqPolicy::DaeOptimal);
    for mut w in all_benchmarks_small() {
        w.compile_auto();
        let mut digest = OFFSET;
        for (variant, cfg) in [(Variant::Cae, &cae_cfg), (Variant::AutoDae, &auto_cfg)] {
            let report = run_workload(&w.module, &w.tasks(variant), cfg)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            digest = fnv1a(digest, report.to_json_string().as_bytes());
        }
        got.push((format!("corpus/{}", w.name), digest));
    }

    let matches = got.iter().map(|(n, d)| (n.as_str(), *d)).eq(EXPECTED);
    let table: String = got.iter().map(|(n, d)| format!("    (\"{n}\", {d:#018x}),\n")).collect();
    assert!(matches, "run output changed; computed digests:\n{table}");
}

const DAEC_POLICIES: [&str; 3] = ["dae-optimal", "governed:bandit:7", "governed:heuristic"];

/// Recorded on the parent commit, in the order the test computes them: per
/// example module and policy, the trace document of a run that also wrote
/// profiles, then the profile documents of that run and of a run that wrote
/// only profiles, chained.
const DAEC_EXPECTED: [(&str, u64); 12] = [
    ("gather/dae-optimal/trace", 0xf261_7f7a_dbdd_3c1f),
    ("gather/dae-optimal/profile", 0xb473_29e1_ceec_a94f),
    ("gather/governed:bandit:7/trace", 0x81f3_25b0_179c_b7b6),
    ("gather/governed:bandit:7/profile", 0xb473_29e1_ceec_a94f),
    ("gather/governed:heuristic/trace", 0x96d0_0035_cd3a_d156),
    ("gather/governed:heuristic/profile", 0xb473_29e1_ceec_a94f),
    ("stream/dae-optimal/trace", 0x0551_f94d_113c_24d5),
    ("stream/dae-optimal/profile", 0x0e30_cbe2_dd00_775b),
    ("stream/governed:bandit:7/trace", 0x0d13_834c_1b93_9872),
    ("stream/governed:bandit:7/profile", 0x0e30_cbe2_dd00_775b),
    ("stream/governed:heuristic/trace", 0x2b8f_b7ff_49cc_8a76),
    ("stream/governed:heuristic/profile", 0x0e30_cbe2_dd00_775b),
];

/// The trace document without what varies from run to run or checkout to
/// checkout: the driver's wall-clock compile spans, the wall-clock cost of
/// bytecode lowering and the module's path.
fn virtual_time_part(trace: &str) -> String {
    let mut v = parse(trace).expect("valid trace JSON");
    let JsonValue::Obj(top) = &mut v else { panic!("trace is an object") };
    for (key, value) in top.iter_mut() {
        match (key.as_str(), value) {
            ("traceEvents", JsonValue::Arr(events)) => {
                events.retain(|e| e.get("cat").and_then(JsonValue::as_str) != Some("compile"));
                for event in events.iter_mut() {
                    let JsonValue::Obj(fields) = event else { continue };
                    for (k, args) in fields.iter_mut() {
                        if let ("args", JsonValue::Obj(args)) = (k.as_str(), args) {
                            args.retain(|(k, _)| k != "wall_s");
                        }
                    }
                }
            }
            ("metadata", JsonValue::Obj(meta)) => meta.retain(|(k, _)| k != "source"),
            _ => {}
        }
    }
    v.to_json_string()
}

#[test]
fn daec_trace_and_profile_documents_match_recorded_digests() {
    let dir = std::env::temp_dir().join(format!("dae-run-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let daec = |args: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_daec"))
            .args(args)
            .output()
            .expect("daec runs");
        assert!(out.status.success(), "daec {args:?}: {}", String::from_utf8_lossy(&out.stderr));
    };
    let read = |name: &str| std::fs::read_to_string(dir.join(name)).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let mut got: Vec<(String, u64)> = Vec::new();
    for module in ["gather", "stream"] {
        let file = format!("{}/examples/ir/{module}.dae", env!("CARGO_MANIFEST_DIR"));
        for policy in DAEC_POLICIES {
            let (trace, both, alone) = (path("t.json"), path("both.json"), path("alone.json"));
            daec(&[&file, "--policy", policy, "--trace-out", &trace, "--profile-out", &both]);
            daec(&[&file, "--policy", policy, "--profile-out", &alone]);
            let trace = fnv1a(OFFSET, virtual_time_part(&read("t.json")).as_bytes());
            let profile =
                fnv1a(fnv1a(OFFSET, read("both.json").as_bytes()), read("alone.json").as_bytes());
            got.push((format!("{module}/{policy}/trace"), trace));
            got.push((format!("{module}/{policy}/profile"), profile));
            for name in ["t.json", "both.json", "alone.json"] {
                std::fs::remove_file(dir.join(name)).unwrap();
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    let matches = got.iter().map(|(n, d)| (n.as_str(), *d)).eq(DAEC_EXPECTED);
    let table: String = got.iter().map(|(n, d)| format!("    (\"{n}\", {d:#018x}),\n")).collect();
    assert!(matches, "daec documents changed; computed digests:\n{table}");
}
