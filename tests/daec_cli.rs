//! Integration tests of the `daec` command-line driver.

use dae_repro::trace::json::{parse, JsonValue};
use std::process::Command;

fn daec(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_daec")).args(args).output().expect("daec runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn example(name: &str) -> String {
    format!("{}/examples/ir/{name}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn transforms_and_prints_module() {
    let (ok, stdout, stderr) = daec(&[&example("stream.dae")]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("task fn scale_chunk"), "{stdout}");
    assert!(stdout.contains("fn scale_chunk__access"), "{stdout}");
    assert!(stdout.contains("prefetch"), "{stdout}");
}

#[test]
fn report_mode_classifies_strategies() {
    let (ok, stdout, _) = daec(&[&example("stream.dae"), "--report"]);
    assert!(ok);
    assert!(stdout.contains("polyhedral"), "{stdout}");
    let (ok, stdout, _) = daec(&[&example("gather.dae"), "--report"]);
    assert!(ok);
    assert!(stdout.contains("skeleton"), "{stdout}");
}

#[test]
fn run_mode_reports_dae_benefit() {
    let (ok, stdout, _) = daec(&[&example("stream.dae"), "--report", "--run"]);
    assert!(ok);
    assert!(stdout.contains("CAE@fmax"), "{stdout}");
    assert!(stdout.contains("DAE dae-optimal"), "{stdout}");
    assert!(stdout.contains("EDP"), "{stdout}");
}

#[test]
fn policy_help_lists_every_spec() {
    let (ok, stdout, _) = daec(&["--policy", "help"]);
    assert!(ok, "--policy help succeeds without a module file");
    for spec in
        ["coupled-max", "coupled-fixed", "coupled-optimal", "dae-minmax", "dae-optimal", "governed"]
    {
        assert!(stdout.contains(spec), "help misses `{spec}`: {stdout}");
    }
}

#[test]
fn run_mode_accepts_governed_policy() {
    let (ok, stdout, stderr) =
        daec(&[&example("stream.dae"), "--report", "--run", "--policy", "governed:bandit:7"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("DAE governed:bandit:7"), "{stdout}");
    assert!(stdout.contains("EDP"), "{stdout}");
}

#[test]
fn run_mode_snaps_coupled_fixed_to_the_table() {
    let (ok, stdout, stderr) =
        daec(&[&example("stream.dae"), "--run", "--policy", "coupled-fixed:2.3"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("DAE coupled-fixed:2.4"), "2.3 GHz snaps to 2.4: {stdout}");
}

#[test]
fn bad_policy_fails_cleanly() {
    let (ok, _, stderr) = daec(&[&example("stream.dae"), "--run", "--policy", "warp-speed"]);
    assert!(!ok);
    assert!(stderr.contains("unknown policy"), "{stderr}");
}

#[test]
fn trace_out_records_the_selected_policy_and_governor() {
    let dir = std::env::temp_dir().join("daec_cli_trace_governed");
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("g.json");
    let (ok, _, stderr) = daec(&[
        &example("stream.dae"),
        "--trace-out",
        out.to_str().unwrap(),
        "--policy",
        "governed",
    ]);
    assert!(ok, "{stderr}");
    let v = parse(&std::fs::read_to_string(&out).unwrap()).expect("valid JSON");
    let meta = v.get("metadata").unwrap();
    assert_eq!(meta.get("policy").unwrap().as_str(), Some("governed:heuristic"));
    let events = v.get("traceEvents").unwrap().as_arr().unwrap();
    let decisions =
        events.iter().filter(|e| e.get("cat").and_then(JsonValue::as_str) == Some("governor"));
    assert!(decisions.count() > 0);
    let gov = meta.get("report").unwrap().get("governor").expect("governed report section");
    assert_eq!(gov.get("governor").unwrap().as_str(), Some("heuristic"));
    assert!(!gov.get("classes").unwrap().as_arr().unwrap().is_empty());
}

#[test]
fn no_polyhedral_flag_forces_skeleton() {
    let (ok, stdout, _) = daec(&[&example("stream.dae"), "--report", "--no-polyhedral"]);
    assert!(ok);
    assert!(stdout.contains("skeleton"), "{stdout}");
    assert!(!stdout.contains("polyhedral"), "{stdout}");
}

#[test]
fn missing_file_fails_cleanly() {
    let (ok, _, stderr) = daec(&["/nonexistent/nope.dae"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read"), "{stderr}");
}

#[test]
fn bad_arguments_fail_cleanly() {
    let (ok, _, stderr) = daec(&["--frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown argument"), "{stderr}");
    let (ok, _, stderr) = daec(&[]);
    assert!(!ok);
    assert!(stderr.contains("usage"), "{stderr}");
}

#[test]
fn trace_out_chrome_is_valid_and_reconciles_with_breakdown() {
    let dir = std::env::temp_dir().join("daec_cli_trace_chrome");
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("t.json");
    let (ok, stdout, stderr) =
        daec(&[&example("stream.dae"), "--trace-out", out.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("trace:"), "{stdout}");

    let v = parse(&std::fs::read_to_string(&out).unwrap()).expect("valid JSON");
    let events = v.get("traceEvents").unwrap().as_arr().unwrap();
    let cores = v.get("metadata").unwrap().get("cores").unwrap().as_f64().unwrap() as usize;
    assert_eq!(cores, 4);

    // One named lane per simulated core.
    let lanes: Vec<u64> = events
        .iter()
        .filter(|e| e.get("name").and_then(JsonValue::as_str) == Some("thread_name"))
        .map(|e| e.get("tid").unwrap().as_f64().unwrap() as u64)
        .collect();
    assert_eq!(lanes, (0..cores as u64).collect::<Vec<_>>());

    // Complete spans, grouped per lane: no overlap within a lane.
    let spans: Vec<(&JsonValue, u64, f64, f64)> = events
        .iter()
        .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
        .map(|e| {
            (
                e,
                e.get("tid").unwrap().as_f64().unwrap() as u64,
                e.get("ts").unwrap().as_f64().unwrap(),
                e.get("dur").unwrap().as_f64().unwrap(),
            )
        })
        .collect();
    assert!(!spans.is_empty());
    for lane in 0..cores as u64 {
        let mut mine: Vec<(f64, f64)> =
            spans.iter().filter(|s| s.1 == lane).map(|s| (s.2, s.2 + s.3)).collect();
        mine.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for w in mine.windows(2) {
            assert!(w[1].0 >= w[0].1 - 1e-6, "lane {lane} overlap: {w:?}");
        }
    }

    // Per-category span totals reconcile with the embedded RunReport
    // breakdown to within 1e-9 s (ts/dur are microseconds).
    let breakdown = v.get("metadata").unwrap().get("report").unwrap().get("breakdown").unwrap();
    let total_us = |cats: &[&str]| -> f64 {
        spans
            .iter()
            .filter(|s| cats.contains(&s.0.get("cat").unwrap().as_str().unwrap()))
            .map(|s| s.3)
            .sum()
    };
    let field = |k: &str| breakdown.get(k).unwrap().as_f64().unwrap() * 1e6;
    assert!((total_us(&["access"]) - field("access_s")).abs() < 1e-3);
    assert!((total_us(&["execute"]) - field("execute_s")).abs() < 1e-3);
    assert!((total_us(&["overhead", "dvfs"]) - field("overhead_s")).abs() < 1e-3);
    assert!((total_us(&["idle"]) - field("idle_s")).abs() < 1e-3);

    // Phase spans carry counter snapshots.
    let access_span = spans
        .iter()
        .find(|s| s.0.get("cat").unwrap().as_str() == Some("access"))
        .expect("stream.dae generates an access phase");
    let counters = access_span.0.get("args").unwrap().get("counters").unwrap();
    assert!(counters.get("prefetches").unwrap().as_f64().unwrap() > 0.0);
}

#[test]
fn parse_errors_carry_line_numbers() {
    let dir = std::env::temp_dir().join("daec_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.dae");
    std::fs::write(&bad, "fn broken() {\nbb0:\n  v0: i64 = frobnicate 1, 2\n  ret\n}\n").unwrap();
    let (ok, _, stderr) = daec(&[bad.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("line 3"), "{stderr}");
}

/// A fresh scratch directory for one test.
fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("daec_cli_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The one record of a `--profile-out` document.
fn only_record(path: &std::path::Path) -> JsonValue {
    let v = parse(&std::fs::read_to_string(path).unwrap()).expect("valid JSON");
    assert_eq!(v.get("schema").unwrap().as_str(), Some("dae-pgo-profile/1"));
    let records = v.get("records").unwrap().as_arr().unwrap();
    assert_eq!(records.len(), 1, "one task, one record");
    records[0].clone()
}

/// The `EDP {:+.1}%` figure of the first `--run` line.
fn edp_delta(stdout: &str) -> f64 {
    let line = stdout.lines().find(|l| l.contains("EDP")).expect("a --run line");
    let pct = line.rsplit("EDP").next().unwrap().trim().trim_end_matches('%');
    pct.parse().unwrap_or_else(|e| panic!("`{line}`: {e}"))
}

#[test]
fn profile_out_writes_a_document_that_profile_in_reads_back() {
    let dir = scratch("profile_out");
    let doc = dir.join("p.json");
    let (ok, stdout, stderr) =
        daec(&[&example("stream.dae"), "--profile-out", doc.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("profile: 1 records resident (1 merged, 0 skipped"), "{stdout}");
    let record = only_record(&doc);
    assert_eq!(record.get("runs").unwrap().as_f64(), Some(1.0));

    let (ok, stdout, stderr) =
        daec(&[&example("stream.dae"), "--profile-in", doc.to_str().unwrap(), "--report"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("compile: 1 tasks, 1 generated"), "{stdout}");
    assert!(!stdout.contains("profile:"), "--profile-in alone collects nothing: {stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn profile_dir_merges_across_invocations() {
    let dir = scratch("profile_dir");
    let (stream, store) = (example("stream.dae"), dir.join("store"));
    let args = [stream.as_str(), "--report", "--profile-dir", store.to_str().unwrap()];
    let (ok, stdout, stderr) = daec(&args);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("profile: 1 records resident (1 merged"), "{stdout}");
    let (ok, stdout, stderr) = daec(&args);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("profile: 1 records resident (2 merged"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn profile_out_and_trace_out_observe_one_run() {
    let dir = scratch("profile_and_trace");
    let (doc, trace) = (dir.join("p.json"), dir.join("t.json"));
    let (ok, stdout, stderr) = daec(&[
        &example("stream.dae"),
        "--profile-out",
        doc.to_str().unwrap(),
        "--trace-out",
        trace.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    let (p, t) = (stdout.find("profile: 1 records").unwrap(), stdout.find("trace: ").unwrap());
    assert!(p < t, "the profile line comes first: {stdout}");

    // The profile's counters are the traced run's counters.
    let record = only_record(&doc);
    let v = parse(&std::fs::read_to_string(&trace).unwrap()).expect("valid JSON");
    let report = v.get("metadata").unwrap().get("report").unwrap();
    let count =
        |v: &JsonValue, phase: &str, k: &str| v.get(phase).unwrap().get(k).unwrap().as_f64();
    assert_eq!(count(&record, "execute", "instrs"), count(report, "execute_trace", "instrs"));
    assert_eq!(count(&record, "access", "prefetches"), count(report, "access_trace", "prefetches"));
    assert!(count(&record, "access", "prefetches").unwrap() > 0.0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_report_compile_section_is_the_report_compile_line() {
    // Cold, then warm from the disk tier: the `compile` object embedded in
    // the trace carries the counts `--report` prints, key for key.
    let dir = scratch("compile_section");
    let cache = dir.join("cache");
    for round in 0..2 {
        let trace = dir.join(format!("t{round}.json"));
        let (ok, stdout, stderr) = daec(&[
            &example("stream.dae"),
            "--report",
            "--cache-dir",
            cache.to_str().unwrap(),
            "--trace-out",
            trace.to_str().unwrap(),
        ]);
        assert!(ok, "{stderr}");
        let line = stdout.lines().find(|l| l.starts_with("compile: ")).expect("compile line");
        let printed: Vec<f64> = line
            .split(|c: char| !c.is_ascii_digit())
            .filter(|w| !w.is_empty())
            .map(|w| w.parse().unwrap())
            .collect();
        let v = parse(&std::fs::read_to_string(&trace).unwrap()).expect("valid JSON");
        let compile = v.get("metadata").unwrap().get("report").unwrap().get("compile").unwrap();
        let keys: Vec<&str> = compile.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "tasks",
                "generated",
                "refused",
                "from_cache",
                "mem_hits",
                "disk_hits",
                "misses",
                "evictions",
                "hits"
            ]
        );
        let field = |k: &str| compile.get(k).unwrap().as_f64().unwrap();
        let embedded: Vec<f64> = keys[..7].iter().map(|k| field(k)).collect();
        assert_eq!(embedded, printed, "{line}");
        assert_eq!(field("hits"), field("mem_hits") + field("disk_hits"));
        let warm = if round == 0 { 0.0 } else { field("tasks") };
        assert_eq!(field("disk_hits"), warm, "round {round}: {line}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn profile_in_warm_starts_the_bandit() {
    let dir = scratch("warm_bandit");
    let (stream, doc) = (example("stream.dae"), dir.join("p.json"));
    let doc = doc.to_str().unwrap();
    let (ok, _, stderr) = daec(&[&stream, "--profile-out", doc]);
    assert!(ok, "{stderr}");
    let (ok, cold, stderr) = daec(&[&stream, "--run", "--policy", "governed:bandit:7"]);
    assert!(ok, "{stderr}");
    let (ok, warm, stderr) =
        daec(&[&stream, "--profile-in", doc, "--run", "--policy", "governed:bandit:7"]);
    assert!(ok, "{stderr}");
    let (cold, warm) = (edp_delta(&cold), edp_delta(&warm));
    assert!(warm < cold, "the profiled prior lowers EDP: warm {warm}% vs cold {cold}%");
    let _ = std::fs::remove_dir_all(&dir);
}
