//! Spans recorded by the benchmark's own code around each public call
//! into a layer: name, start, end, parent, and one id per operation.
//!
//! Spans stay in memory and are written once, as Chrome-trace JSON, when
//! the traced run ends. A disabled tracer records nothing, so the same
//! workload code serves the untraced run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `ir.parse`.
    pub name: &'static str,
    /// The operation (request, module, benchmark run) the span belongs to.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Benchmark thread that recorded the span.
    pub thread: u32,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
}

/// An in-memory span recorder for one thread of the benchmark.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    thread: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false, Instant::now(), 0)
    }

    /// A tracer for benchmark thread `thread`; threads of one traced run
    /// share `origin`.
    pub fn new(enabled: bool, origin: Instant, thread: u32) -> Tracer {
        Tracer { enabled, origin, thread, spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` belonging to operation `op`.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            thread: self.thread,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        r
    }

    /// Index of the span recorded last (`None` when disabled or empty).
    pub fn last_index(&self) -> Option<usize> {
        self.spans.len().checked_sub(1)
    }

    /// Adds a child of span `parent` from a timing the program itself
    /// reported (`offset_s`/`dur_s` relative to the parent's start) — how
    /// the driver's `PassSpan`s join the tree.
    pub fn reported_child(&mut self, parent: usize, name: &'static str, offset_s: f64, dur_s: f64) {
        let p = &self.spans[parent];
        let start_ns = (p.start_ns + (offset_s * 1e9) as u64).min(p.end_ns);
        let end_ns = (start_ns + (dur_s * 1e9) as u64).min(p.end_ns);
        let (op, thread) = (p.op, p.thread);
        self.spans.push(Span { name, op, parent: Some(parent), thread, start_ns, end_ns });
    }

    /// Appends another thread's spans.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Durations in seconds of the spans named `name`, in recording order.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .collect()
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Self time per span name: each span's duration minus the part its
    /// children cover, summed by name. Returns `(name, self_ns, spans)`
    /// sorted by self time, largest first.
    pub fn self_times(&self) -> Vec<(&'static str, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child_ns) {
            let e = by_name.entry(s.name).or_default();
            e.0 += (s.end_ns - s.start_ns).saturating_sub(*c);
            e.1 += 1;
        }
        let mut rows: Vec<_> = by_name.into_iter().map(|(n, (ns, k))| (n, ns, k)).collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        rows
    }

    /// The layer-share table: self time of every span name as a share of
    /// the summed self time.
    pub fn share_table(&self, title: &str) -> String {
        let rows = self.self_times();
        let total: u64 = rows.iter().map(|r| r.1).sum();
        let mut out = format!("layer shares, {title} ({} spans, self time):\n", self.spans.len());
        for (name, ns, count) in rows {
            let _ = writeln!(
                out,
                "  {name:<28} {:>10.3} ms {:>6.2}%  {count:>8} spans",
                ns as f64 / 1e6,
                if total == 0 { 0.0 } else { ns as f64 * 100.0 / total as f64 },
            );
        }
        out
    }

    /// Writes the spans as Chrome-trace JSON (`ph: "X"` complete events,
    /// microsecond timestamps, the operation id in `args`).
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96 + 32);
        out.push_str("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"op\":{},\"parent\":{}}}}}",
                s.name,
                s.thread,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op,
                s.parent.map_or(-1, |p| p as i64),
            );
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true, Instant::now(), 0);
        t.span("outer", 1, |t| {
            t.span("inner", 1, |_| std::thread::sleep(std::time::Duration::from_millis(2)));
        });
        let rows = t.self_times();
        let outer = rows.iter().find(|r| r.0 == "outer").unwrap();
        let inner = rows.iter().find(|r| r.0 == "inner").unwrap();
        assert!(inner.1 >= 2_000_000);
        assert!(outer.1 < inner.1, "outer's self time excludes inner: {rows:?}");
        assert_eq!(t.spans[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.span("x", 0, |_| 7), 7);
        assert!(t.is_empty() && t.last_index().is_none());
    }

    #[test]
    fn reported_children_are_clamped_to_their_parent() {
        let mut t = Tracer::new(true, Instant::now(), 0);
        t.span("compile", 3, |_| ());
        t.reported_child(t.last_index().unwrap(), "pass", 0.0, 10.0);
        let (p, c) = (&t.spans[0], &t.spans[1]);
        assert_eq!(c.parent, Some(0));
        assert!(c.end_ns <= p.end_ns && c.op == 3);
    }
}
