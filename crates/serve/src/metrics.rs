//! Live server metrics: atomic counters plus per-operation latency
//! histograms, snapshotted as the `stats` endpoint's JSON.
//!
//! Counters are lock-free; histograms sit behind a mutex each (a handful
//! of nanoseconds per request next to a compile or a simulated run).
//! Everything here is **volatile by definition** — the `stats` response is
//! the one place the protocol's determinism contract does not apply.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dae_trace::json::JsonValue;
use dae_trace::{lock_recover, LogHistogram};

use crate::front::AdmissionCounters;

/// Schema tag of the `stats` result object. `/3` added the `pgo` section
/// (profile records, recompile counters); `/4` dropped the `engine` key;
/// `/5` added the coupled-baseline memo's counters to `cache`
/// (`baseline_hits`, `baseline_misses`, `baseline_used_bytes`); `/6`
/// dropped the recompile worker's counters from `pgo`; `/7` dropped `pgo`.
pub(crate) const STATS_SCHEMA: &str = "dae-serve-stats/7";

/// Work-operation index into the per-op histogram array.
#[derive(Clone, Copy)]
pub(crate) enum WorkOp {
    /// A `compile` request.
    Compile = 0,
    /// A `report` request.
    Report = 1,
    /// A `run` request.
    Run = 2,
}

const WORK_OPS: [&str; 3] = ["compile", "report", "run"];

/// The server's live counters and latency distributions.
pub(crate) struct Metrics {
    started: Instant,
    /// Accepted / shed (`serve.overloaded`) / refused (`serve.draining`) /
    /// expired (`serve.deadline`) / malformed-frame counts, bumped by the
    /// front end.
    pub admission: AdmissionCounters,
    /// Work requests answered successfully.
    pub completed: AtomicU64,
    /// Work requests answered with a layer error (`ir.parse`, `sim.trap`, …).
    pub failed: AtomicU64,
    /// Handler panics converted to `serve.internal` responses.
    pub internal_errors: AtomicU64,
    /// End-to-end service latency per work op (queue wait + handling).
    service: [Mutex<LogHistogram>; 3],
    /// Time spent queued before a worker picked the request up.
    queue_wait: Mutex<LogHistogram>,
}

impl Metrics {
    /// Fresh, all-zero metrics; `uptime_s` counts from here.
    pub(crate) fn new() -> Metrics {
        Metrics {
            started: Instant::now(),
            admission: AdmissionCounters::default(),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            internal_errors: AtomicU64::new(0),
            service: [
                Mutex::new(LogHistogram::new()),
                Mutex::new(LogHistogram::new()),
                Mutex::new(LogHistogram::new()),
            ],
            queue_wait: Mutex::new(LogHistogram::new()),
        }
    }

    /// Records one completed work request: its op, how long it waited in
    /// the queue and its end-to-end service time.
    pub(crate) fn record(&self, op: WorkOp, queue_wait: Duration, service: Duration) {
        lock_recover(&self.queue_wait).record(queue_wait.as_secs_f64());
        lock_recover(&self.service[op as usize]).record(service.as_secs_f64());
    }

    /// The `stats` result object. `queue_depth` and the cache section are
    /// sampled by the caller (they live outside this struct).
    pub(crate) fn to_json(
        &self,
        queue_depth: usize,
        workers: usize,
        cache: JsonValue,
    ) -> JsonValue {
        let c = |a: &AtomicU64| JsonValue::from(a.load(Ordering::Relaxed));
        let a = &self.admission;
        let latency: Vec<(String, JsonValue)> = WORK_OPS
            .iter()
            .enumerate()
            .map(|(i, name)| (name.to_string(), lock_recover(&self.service[i]).to_json()))
            .chain([("queue_wait".to_string(), lock_recover(&self.queue_wait).to_json())])
            .collect();
        JsonValue::obj([
            ("schema", STATS_SCHEMA.into()),
            ("uptime_s", self.started.elapsed().as_secs_f64().into()),
            ("workers", workers.into()),
            ("queue_depth", queue_depth.into()),
            (
                "requests",
                JsonValue::obj([
                    ("accepted", c(&a.accepted)),
                    ("completed", c(&self.completed)),
                    ("failed", c(&self.failed)),
                    ("shed", c(&a.shed)),
                    ("refused_draining", c(&a.refused_draining)),
                    ("deadline_expired", c(&a.deadline_expired)),
                    ("bad_requests", c(&a.bad_requests)),
                    ("internal_errors", c(&self.internal_errors)),
                ]),
            ),
            ("latency", JsonValue::Obj(latency)),
            ("cache", cache),
        ])
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_json_has_the_full_shape() {
        let m = Metrics::new();
        m.admission.accepted.store(5, Ordering::Relaxed);
        m.completed.store(4, Ordering::Relaxed);
        m.admission.shed.store(1, Ordering::Relaxed);
        m.record(WorkOp::Run, Duration::from_micros(20), Duration::from_millis(3));
        let v = m.to_json(2, 8, JsonValue::obj([("mem_hits", 7u64.into())]));
        assert_eq!(v.get("schema").unwrap().as_str(), Some(STATS_SCHEMA));
        assert_eq!(v.get("queue_depth").unwrap().as_f64(), Some(2.0));
        assert_eq!(v.get("workers").unwrap().as_f64(), Some(8.0));
        let r = v.get("requests").unwrap();
        assert_eq!(r.get("accepted").unwrap().as_f64(), Some(5.0));
        assert_eq!(r.get("shed").unwrap().as_f64(), Some(1.0));
        let lat = v.get("latency").unwrap();
        assert_eq!(lat.get("run").unwrap().get("count").unwrap().as_f64(), Some(1.0));
        assert_eq!(lat.get("compile").unwrap().get("count").unwrap().as_f64(), Some(0.0));
        assert_eq!(lat.get("queue_wait").unwrap().get("count").unwrap().as_f64(), Some(1.0));
        assert_eq!(v.get("cache").unwrap().get("mem_hits").unwrap().as_f64(), Some(7.0));
        assert!(v.get("pgo").is_none(), "daed keeps no profiles");
        // The whole snapshot round-trips through the JSON writer/parser.
        assert!(dae_trace::json::parse(&v.to_json_string()).is_ok());
    }

    #[test]
    fn record_feeds_the_right_histogram() {
        let m = Metrics::new();
        m.record(WorkOp::Compile, Duration::ZERO, Duration::from_millis(1));
        m.record(WorkOp::Compile, Duration::ZERO, Duration::from_millis(2));
        m.record(WorkOp::Report, Duration::ZERO, Duration::from_millis(1));
        let v = m.to_json(0, 1, JsonValue::Null);
        let lat = v.get("latency").unwrap();
        assert_eq!(lat.get("compile").unwrap().get("count").unwrap().as_f64(), Some(2.0));
        assert_eq!(lat.get("report").unwrap().get("count").unwrap().as_f64(), Some(1.0));
        assert_eq!(lat.get("run").unwrap().get("count").unwrap().as_f64(), Some(0.0));
    }
}
