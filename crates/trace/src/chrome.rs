//! Chrome Trace Event JSON export.
//!
//! Produces the [Trace Event Format] consumed by Perfetto
//! (<https://ui.perfetto.dev>) and `chrome://tracing`:
//!
//! * one named lane (`tid`) per simulated core, carrying complete (`"X"`)
//!   spans for access/execute phases, task dispatch, DVFS transitions and
//!   idle gaps — span `cat` is [`TraceEvent::category`], span `args` carry
//!   frequency, energy split and the per-phase counters;
//! * a `coreN GHz` counter track per core, sampled at every phase start
//!   and DVFS transition;
//! * a cumulative `energy (J)` counter track over all cores.
//!
//! Timestamps are the scheduler's virtual seconds converted to the
//! format's microseconds.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::event::TraceEvent;
use crate::json::JsonValue;
use crate::sink::Recorder;

const PID: u32 = 1;

/// Seconds → Trace-Event-Format microseconds.
fn us(t_s: f64) -> f64 {
    t_s * 1e6
}

/// Renders the recorded events as a Chrome-trace JSON string.
pub fn chrome_trace_json(rec: &Recorder) -> String {
    chrome_trace_json_with(rec, Vec::new())
}

/// Same as [`chrome_trace_json`], with extra entries merged into the
/// top-level `metadata` object (e.g. the run's `RunReport` for offline
/// reconciliation).
pub fn chrome_trace_json_with(rec: &Recorder, extra: Vec<(String, JsonValue)>) -> String {
    let mut events: Vec<JsonValue> = Vec::with_capacity(rec.len() * 2 + rec.cores() + 4);

    events.push(meta_event("process_name", None, "dae virtual machine"));
    for core in 0..rec.cores() {
        events.push(meta_event("thread_name", Some(core as u32), &format!("core {core}")));
    }

    // (end_s, joules) samples for the cumulative energy track.
    let mut energy_samples: Vec<(f64, f64)> = Vec::new();

    for ev in rec.events() {
        events.push(span_event(ev));
        if let Some(c) = freq_sample(ev) {
            events.push(c);
        }
        let e = ev.energy_j();
        if e > 0.0 {
            energy_samples.push((ev.end_s(), e));
        }
    }

    energy_samples.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite timestamps"));
    let mut cum = 0.0;
    for (t, e) in energy_samples {
        cum += e;
        events.push(JsonValue::obj([
            ("name", "energy (J)".into()),
            ("ph", "C".into()),
            ("ts", us(t).into()),
            ("pid", PID.into()),
            ("args", JsonValue::obj([("J", cum.into())])),
        ]));
    }

    let mut metadata = vec![
        ("tool".to_string(), JsonValue::from("dae-trace")),
        ("cores".to_string(), rec.cores().into()),
        ("events".to_string(), rec.len().into()),
    ];
    metadata.extend(extra);

    JsonValue::obj([
        ("traceEvents", JsonValue::Arr(events)),
        ("displayTimeUnit", "ns".into()),
        ("metadata", JsonValue::Obj(metadata)),
    ])
    .to_json_string()
}

fn meta_event(name: &str, tid: Option<u32>, value: &str) -> JsonValue {
    let mut pairs = vec![
        ("name".to_string(), JsonValue::from(name)),
        ("ph".to_string(), "M".into()),
        ("pid".to_string(), PID.into()),
    ];
    if let Some(tid) = tid {
        pairs.push(("tid".to_string(), tid.into()));
    }
    pairs.push(("args".to_string(), JsonValue::obj([("name", value.into())])));
    JsonValue::Obj(pairs)
}

fn span_event(ev: &TraceEvent) -> JsonValue {
    let (name, args) = match ev {
        TraceEvent::Phase {
            task, name, freq_ghz, dyn_energy_j, static_energy_j, counters, ..
        } => (
            name.clone(),
            JsonValue::obj([
                ("task", (*task).into()),
                ("freq_ghz", (*freq_ghz).into()),
                ("dyn_energy_j", (*dyn_energy_j).into()),
                ("static_energy_j", (*static_energy_j).into()),
                ("counters", counters.to_json()),
            ]),
        ),
        TraceEvent::Overhead { task, energy_j, .. } => (
            "dispatch".to_string(),
            JsonValue::obj([("task", (*task).into()), ("energy_j", (*energy_j).into())]),
        ),
        TraceEvent::DvfsTransition { from_ghz, to_ghz, energy_j, .. } => (
            format!("dvfs {from_ghz:.1}->{to_ghz:.1} GHz"),
            JsonValue::obj([
                ("from_ghz", (*from_ghz).into()),
                ("to_ghz", (*to_ghz).into()),
                ("energy_j", (*energy_j).into()),
            ]),
        ),
        TraceEvent::Idle { .. } => ("idle".to_string(), JsonValue::obj([])),
        TraceEvent::CompilePass { pass, func, cached, .. } => (
            format!("{pass} [{func}]"),
            JsonValue::obj([
                ("pass", pass.as_str().into()),
                ("func", func.as_str().into()),
                ("cached", (*cached).into()),
            ]),
        ),
        TraceEvent::BytecodeLower { func, ops, fused, wall_s, .. } => (
            format!("lower [{func}]"),
            JsonValue::obj([
                ("func", func.as_str().into()),
                ("ops", (*ops).into()),
                ("fused", (*fused).into()),
                ("wall_s", (*wall_s).into()),
            ]),
        ),
        TraceEvent::GateRoute { key, backend, attempts, spilled, .. } => (
            format!("route [{backend}]"),
            JsonValue::obj([
                ("key", format!("{key:016x}").into()),
                ("backend", backend.as_str().into()),
                ("attempts", (*attempts).into()),
                ("spilled", (*spilled).into()),
            ]),
        ),
        TraceEvent::BackendEject { backend, reason, failures, .. } => (
            format!("eject [{backend}]"),
            JsonValue::obj([
                ("backend", backend.as_str().into()),
                ("reason", reason.as_str().into()),
                ("failures", (*failures).into()),
            ]),
        ),
        TraceEvent::GovernorDecision {
            task,
            class,
            access_ghz,
            execute_ghz,
            explore,
            guarded,
            ..
        } => (
            format!("governor {access_ghz:.1}/{execute_ghz:.1} GHz"),
            JsonValue::obj([
                ("task", (*task).into()),
                ("class", class.as_str().into()),
                ("access_ghz", (*access_ghz).into()),
                ("execute_ghz", (*execute_ghz).into()),
                ("explore", (*explore).into()),
                ("guarded", (*guarded).into()),
            ]),
        ),
    };
    JsonValue::obj([
        ("name", name.into()),
        ("cat", ev.category().into()),
        ("ph", "X".into()),
        ("ts", us(ev.start_s()).into()),
        ("dur", us(ev.dur_s()).into()),
        ("pid", PID.into()),
        ("tid", ev.core().into()),
        ("args", args),
    ])
}

/// A per-core frequency counter sample, for events that pin or change the
/// operating point.
fn freq_sample(ev: &TraceEvent) -> Option<JsonValue> {
    let (core, t, ghz) = match ev {
        TraceEvent::Phase { core, start_s, freq_ghz, .. } => (*core, *start_s, *freq_ghz),
        TraceEvent::DvfsTransition { core, to_ghz, .. } => (*core, ev.end_s(), *to_ghz),
        _ => return None,
    };
    Some(JsonValue::obj([
        ("name", format!("core{core} GHz").into()),
        ("ph", "C".into()),
        ("ts", us(t).into()),
        ("pid", PID.into()),
        ("args", JsonValue::obj([("GHz", ghz.into())])),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{PhaseCounters, PhaseKind};
    use crate::json::parse;
    use crate::sink::TraceSink;

    fn sample_recorder() -> Recorder {
        let mut rec = Recorder::new(2);
        rec.record(TraceEvent::Overhead {
            core: 0,
            task: 0,
            start_s: 0.0,
            dur_s: 1e-7,
            energy_j: 1e-9,
        });
        rec.record(TraceEvent::DvfsTransition {
            core: 0,
            start_s: 1e-7,
            dur_s: 5e-7,
            from_ghz: 3.4,
            to_ghz: 1.6,
            energy_j: 2e-9,
        });
        rec.record(TraceEvent::Phase {
            core: 0,
            task: 0,
            name: "stream__access".into(),
            kind: PhaseKind::Access,
            start_s: 6e-7,
            dur_s: 4e-6,
            freq_ghz: 1.6,
            dyn_energy_j: 3e-9,
            static_energy_j: 1e-9,
            counters: PhaseCounters { instrs: 100, prefetches: 12, ..Default::default() },
        });
        rec.record(TraceEvent::Idle { core: 1, start_s: 0.0, dur_s: 4.6e-6 });
        rec
    }

    #[test]
    fn output_is_valid_json_with_expected_structure() {
        let text = chrome_trace_json(&sample_recorder());
        let v = parse(&text).unwrap();
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        // 1 process_name + 2 thread_name + 4 spans + 2 freq samples + 3
        // energy samples.
        assert_eq!(events.len(), 12);
        assert_eq!(v.get("metadata").unwrap().get("cores").unwrap().as_f64(), Some(2.0));
        // Exactly one lane-name record per core.
        let lanes: Vec<f64> = events
            .iter()
            .filter(|e| e.get("name").and_then(JsonValue::as_str) == Some("thread_name"))
            .map(|e| e.get("tid").unwrap().as_f64().unwrap())
            .collect();
        assert_eq!(lanes, [0.0, 1.0]);
    }

    #[test]
    fn spans_carry_categories_and_microsecond_times() {
        let text = chrome_trace_json(&sample_recorder());
        let v = parse(&text).unwrap();
        let spans: Vec<&JsonValue> = v
            .get("traceEvents")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
            .collect();
        let cats: Vec<&str> =
            spans.iter().map(|e| e.get("cat").unwrap().as_str().unwrap()).collect();
        assert_eq!(cats, ["overhead", "dvfs", "access", "idle"]);
        let access = spans[2];
        assert_eq!(access.get("ts").unwrap().as_f64(), Some(0.6));
        assert_eq!(access.get("dur").unwrap().as_f64(), Some(4.0));
        let counters = access.get("args").unwrap().get("counters").unwrap();
        assert_eq!(counters.get("prefetches").unwrap().as_f64(), Some(12.0));
    }

    #[test]
    fn energy_counter_is_cumulative_and_sorted() {
        let text = chrome_trace_json(&sample_recorder());
        let v = parse(&text).unwrap();
        let joules: Vec<f64> = v
            .get("traceEvents")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .filter(|e| e.get("name").and_then(JsonValue::as_str) == Some("energy (J)"))
            .map(|e| e.get("args").unwrap().get("J").unwrap().as_f64().unwrap())
            .collect();
        assert_eq!(joules.len(), 3);
        assert!(joules.windows(2).all(|w| w[0] < w[1]), "{joules:?}");
        assert!((joules[2] - 7e-9).abs() < 1e-18);
    }

    #[test]
    fn metadata_extras_are_merged() {
        let text = chrome_trace_json_with(
            &sample_recorder(),
            vec![("report".to_string(), JsonValue::obj([("time_s", 1.0.into())]))],
        );
        let v = parse(&text).unwrap();
        let report = v.get("metadata").unwrap().get("report").unwrap();
        assert_eq!(report.get("time_s").unwrap().as_f64(), Some(1.0));
    }
}
