//! Every workload at smoke size, untraced and traced: the emitted metric
//! set is the one `BENCHMARK.json` declares, every value is finite, and
//! the same seed gives the same counts and the same request stream.

use std::collections::BTreeSet;
use std::path::PathBuf;

use dae_perf::metrics::{declared, Outcome};
use dae_perf::{run_workload, RunOpts};
use dae_trace::json::{parse, JsonValue};

fn opts(trace: bool) -> RunOpts {
    RunOpts {
        seed: 7,
        seconds: 0.3,
        trace,
        smoke: true,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perf-smoke"),
    }
}

fn fact<'a>(out: &'a Outcome, name: &str) -> Option<&'a JsonValue> {
    out.facts.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

/// The metrics object of a result line, checked against the contract.
fn checked_metrics(line: &str, expect: usize) -> Vec<(String, f64)> {
    let v = parse(line).expect("result line is JSON");
    let keys: Vec<&str> = v.as_obj().expect("object").iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(v.get("correct").and_then(JsonValue::as_bool), Some(true), "{line}");
    assert!(v.get("attempted").and_then(JsonValue::as_f64).expect("attempted") >= 1.0);
    let metrics = v.get("metrics").and_then(JsonValue::as_obj).expect("metrics");
    assert_eq!(metrics.len(), expect);
    metrics
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(JsonValue::as_f64).expect("numeric value");
            assert!(value.is_finite(), "{name}");
            assert!(!m.get("unit").and_then(JsonValue::as_str).expect("unit").is_empty());
            (name.clone(), value)
        })
        .collect()
}

#[test]
fn every_workload_emits_exactly_the_declared_metrics() {
    let d = declared();
    assert_eq!(
        d.workloads,
        ["sim-corpus", "compile-cold", "serve-hit", "serve-miss", "gate-fleet"]
    );
    let mut measured_layers = BTreeSet::new();
    for w in &d.workloads {
        let e2e = run_workload(w, &opts(false)).expect(w);
        assert_eq!(e2e.failed, 0, "{w}");
        let line = e2e.result_line(&d.end_to_end, true).expect(w);
        for (name, value) in checked_metrics(&line, d.end_to_end.len()) {
            assert!(value > 0.0, "{w}: end-to-end metric {name} must never be 0");
        }

        let traced = run_workload(w, &opts(true)).expect(w);
        assert_eq!(traced.failed, 0, "{w}");
        checked_metrics(&traced.result_line(&d.per_layer, false).expect(w), d.per_layer.len());
        assert!(traced.report.starts_with("layer shares"), "{w} prints its layer-share table");
        let file = fact(&traced, "trace_file").and_then(JsonValue::as_str).expect("trace file");
        let chrome =
            parse(&std::fs::read_to_string(file).expect(file)).expect("chrome trace is JSON");
        assert!(!chrome.get("traceEvents").and_then(JsonValue::as_arr).expect("events").is_empty());
        for name in traced.metrics.keys() {
            assert!(d.per_layer.iter().any(|m| &m.name == name), "{w} measured undeclared {name}");
        }
        measured_layers.extend(traced.metrics.keys().cloned());

        // Same seed again: counts, simulated ratios and the stream repeat.
        let again = run_workload(w, &opts(true)).expect(w);
        assert_eq!(fact(&traced, "stream_digest"), fact(&again, "stream_digest"), "{w}");
        for m in d.per_layer.iter().filter(|m| m.unit == "count" || m.unit == "ratio") {
            assert_eq!(traced.metrics.get(&m.name), again.metrics.get(&m.name), "{w}: {}", m.name);
        }
    }
    let declared_layers: BTreeSet<String> = d.per_layer.iter().map(|m| m.name.clone()).collect();
    assert_eq!(measured_layers, declared_layers, "every declared layer metric has a home workload");
}
