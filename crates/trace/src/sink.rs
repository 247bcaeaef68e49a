//! Trace sinks: where producers send events.
//!
//! Instrumented code is handed a `&mut dyn TraceSink` and must guard any
//! event construction behind [`TraceSink::is_enabled`]:
//!
//! ```ignore
//! if sink.is_enabled() {
//!     sink.record(TraceEvent::Idle { core, start_s, dur_s });
//! }
//! ```
//!
//! With the default [`NullSink`] the guard is a single virtual call
//! returning a constant, so tracing costs nothing when off — and because
//! sinks only *observe* (they never touch the scheduler's accounting),
//! reported results are bit-identical with tracing on or off.

use crate::event::TraceEvent;

/// Receives trace events from instrumented producers.
pub trait TraceSink {
    /// Whether events will be kept. Producers skip building [`TraceEvent`]
    /// values (name clones, counter snapshots) when this is `false`.
    fn is_enabled(&self) -> bool;

    /// Accepts one event. Called only when [`TraceSink::is_enabled`] is
    /// `true`.
    fn record(&mut self, event: TraceEvent);
}

/// The zero-cost default sink: discards everything.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    #[inline]
    fn is_enabled(&self) -> bool {
        false
    }

    #[inline]
    fn record(&mut self, _event: TraceEvent) {}
}

/// An in-memory sink: captures every event for export.
#[derive(Clone, Debug)]
pub struct Recorder {
    cores: usize,
    events: Vec<TraceEvent>,
}

impl Recorder {
    /// A recorder for a machine with `cores` simulated cores (the exporter
    /// emits one lane per core, busy or not).
    pub fn new(cores: usize) -> Recorder {
        Recorder { cores, events: Vec::new() }
    }

    /// Number of core lanes.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// The captured events, in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of captured events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl TraceSink for Recorder {
    #[inline]
    fn is_enabled(&self) -> bool {
        true
    }

    fn record(&mut self, event: TraceEvent) {
        self.events.push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_is_disabled() {
        let mut s = NullSink;
        assert!(!s.is_enabled());
        s.record(TraceEvent::Idle { core: 0, start_s: 0.0, dur_s: 1.0 });
    }

    #[test]
    fn recorder_captures_in_order() {
        let mut r = Recorder::new(4);
        assert!(r.is_enabled());
        assert!(r.is_empty());
        r.record(TraceEvent::Idle { core: 0, start_s: 0.0, dur_s: 1.0 });
        r.record(TraceEvent::Idle { core: 1, start_s: 0.5, dur_s: 2.0 });
        assert_eq!(r.len(), 2);
        assert_eq!(r.cores(), 4);
        assert_eq!(r.events()[1].core(), 1);
    }
}
