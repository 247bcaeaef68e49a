//! Gateway-level counters, latency histograms and the `stats` body.
//!
//! Everything here is either atomic or behind a short-lived mutex so the
//! hot path never blocks on stats readers. The JSON shape is versioned
//! (`dae-gate-stats/4`) like the serving layer's, and per-backend detail
//! comes from [`crate::backend::Backend::to_json`] — this module only owns
//! the aggregate view.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use dae_serve::front::AdmissionCounters;
use dae_trace::json::JsonValue;
use dae_trace::{lock_recover, LogHistogram};

/// Stable schema tag for the gateway `stats` response body.
/// `/3` added `inline`; `/4` dropped each backend's `pgo` key.
pub(crate) const GATE_STATS_SCHEMA: &str = "dae-gate-stats/4";

/// Stable schema tag for the gateway `health` response body.
pub(crate) const GATE_HEALTH_SCHEMA: &str = "dae-gate-health/1";

/// Stable machine-readable error codes the gateway itself emits.
/// Backend-origin errors pass through verbatim with their `serve.*` codes.
pub(crate) mod codes {
    /// The gateway admission queue is full; retry with backoff.
    pub(crate) const OVERLOADED: &str = "gate.overloaded";
    /// The gateway is draining and no longer admits work requests.
    pub(crate) const DRAINING: &str = "gate.draining";
    /// The request's deadline budget expired inside the gateway.
    pub(crate) const DEADLINE: &str = "gate.deadline";
    /// No routable backend exists (all ejected or draining).
    pub(crate) const NO_BACKENDS: &str = "gate.no-backends";
    /// Every forwarding attempt failed; the last upstream error is quoted.
    pub(crate) const UPSTREAM: &str = "gate.upstream";
}

/// Aggregate gateway counters and latency histograms.
#[derive(Default)]
pub(crate) struct GateMetrics {
    /// Accepted / shed (`gate.overloaded`, at admission or with every
    /// routable backend at its in-flight cap) / refused (`gate.draining`) /
    /// expired (`gate.deadline`, queued or while routing) / malformed-frame
    /// counts; the front end bumps the admission-time ones.
    pub admission: AdmissionCounters,
    /// Requests answered with `ok: true` (from any backend).
    pub completed: AtomicU64,
    /// Routed requests answered with an error frame (gate- or
    /// backend-origin).
    pub failed: AtomicU64,
    /// Forwarding attempts beyond the first.
    pub retries: AtomicU64,
    /// Requests routed off their home backend by the bounded-load rule.
    pub spills: AtomicU64,
    /// Backend ejections (consecutive-failure trips and failed trials).
    pub ejects: AtomicU64,
    /// Backends returned to `Up` after ejection or drain.
    pub readmits: AtomicU64,
    /// Health probes sent.
    pub probes: AtomicU64,
    /// End-to-end gateway latency for answered requests.
    pub latency: Mutex<LogHistogram>,
    /// Time spent queued before a router thread picked the request up
    /// (zero for a request its reader forwarded).
    pub queue_wait: Mutex<LogHistogram>,
}

impl GateMetrics {
    /// Fresh all-zero metrics.
    pub(crate) fn new() -> GateMetrics {
        GateMetrics::default()
    }

    /// Records one answered request.
    pub(crate) fn record_done(&self, ok: bool, queue_wait_s: f64, total_s: f64) {
        if ok {
            self.completed.fetch_add(1, Ordering::Relaxed);
        } else {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
        lock_recover(&self.queue_wait).record(queue_wait_s);
        lock_recover(&self.latency).record(total_s);
    }

    /// The `stats` response body. `backends` carries per-backend objects
    /// built by the caller (which owns the fleet), `queue_depth` the
    /// current admission-queue occupancy.
    pub(crate) fn to_json(
        &self,
        started: Instant,
        queue_depth: usize,
        routers: usize,
        backends: Vec<JsonValue>,
    ) -> JsonValue {
        let c = |a: &AtomicU64| JsonValue::from(a.load(Ordering::Relaxed));
        let a = &self.admission;
        JsonValue::obj([
            ("schema", GATE_STATS_SCHEMA.into()),
            ("uptime_s", started.elapsed().as_secs_f64().into()),
            ("routers", routers.into()),
            ("queue_depth", queue_depth.into()),
            ("accepted", c(&a.accepted)),
            ("inline", c(&a.inline)),
            ("completed", c(&self.completed)),
            ("failed", c(&self.failed)),
            ("shed", c(&a.shed)),
            ("refused_draining", c(&a.refused_draining)),
            ("deadline_expired", c(&a.deadline_expired)),
            ("bad_requests", c(&a.bad_requests)),
            ("retries", c(&self.retries)),
            ("spills", c(&self.spills)),
            ("ejects", c(&self.ejects)),
            ("readmits", c(&self.readmits)),
            ("probes", c(&self.probes)),
            ("latency", lock_recover(&self.latency).to_json()),
            ("queue_wait", lock_recover(&self.queue_wait).to_json()),
            ("backends", JsonValue::Arr(backends)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_body_has_schema_and_counters() {
        let m = GateMetrics::new();
        m.admission.accepted.fetch_add(3, Ordering::Relaxed);
        m.admission.inline.fetch_add(2, Ordering::Relaxed);
        m.record_done(true, 0.001, 0.010);
        m.record_done(false, 0.002, 0.020);
        let body = m.to_json(Instant::now(), 1, 4, vec![JsonValue::obj([("addr", "x".into())])]);
        assert_eq!(body.get("schema").unwrap().as_str().unwrap(), GATE_STATS_SCHEMA);
        assert_eq!(body.get("accepted").unwrap().as_f64().unwrap(), 3.0);
        assert_eq!(body.get("inline").unwrap().as_f64().unwrap(), 2.0);
        assert_eq!(body.get("completed").unwrap().as_f64().unwrap(), 1.0);
        assert_eq!(body.get("failed").unwrap().as_f64().unwrap(), 1.0);
        assert_eq!(body.get("backends").unwrap().as_arr().unwrap().len(), 1);
        let lat = body.get("latency").unwrap();
        assert_eq!(lat.get("count").unwrap().as_f64().unwrap(), 2.0);
    }

    #[test]
    fn codes_are_dotted_and_gate_scoped() {
        for c in [
            codes::OVERLOADED,
            codes::DRAINING,
            codes::DEADLINE,
            codes::NO_BACKENDS,
            codes::UPSTREAM,
        ] {
            assert!(c.starts_with("gate."), "{c}");
            assert!(!c.contains(' '));
        }
    }
}
