//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, an optional parent span and a duration. A layer's
//! self time is its duration minus the durations of its child spans.
//! Spans are kept in memory and summarized when the run ends; nothing is
//! written while the workload runs.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Index of a span inside its [`Trace`].
pub type SpanId = usize;

#[derive(Debug)]
struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    started: Option<Instant>,
    ns: u64,
}

/// The spans of a traced run.
#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// Opens a span that [`Trace::end`] closes.
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        self.spans.push(Span {
            name,
            parent,
            started: Some(Instant::now()),
            ns: 0,
        });
        self.spans.len() - 1
    }

    /// Closes a span opened with [`Trace::begin`].
    pub fn end(&mut self, id: SpanId) {
        let span = &mut self.spans[id];
        let started = span.started.take().expect("span closed twice");
        span.ns = started.elapsed().as_nanos() as u64;
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let id = self.begin(name, parent);
        let out = f();
        self.end(id);
        (out, id)
    }

    /// Adds a span whose duration was measured elsewhere (by the program
    /// itself, or by a call made outside the parent's interval).
    pub fn record(&mut self, name: &'static str, parent: Option<SpanId>, d: Duration) -> SpanId {
        self.spans.push(Span {
            name,
            parent,
            started: None,
            ns: d.as_nanos() as u64,
        });
        self.spans.len() - 1
    }

    /// Span count and self time (ms) per span name.
    pub fn summary(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            assert!(s.started.is_none(), "span {} never closed", s.name);
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.self_ms += (s.ns as f64 - child_ns[i] as f64) / 1e6;
        }
        out
    }
}

/// Accumulated time of one span name.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct LayerTime {
    /// Number of spans with this name.
    pub count: u64,
    /// Sum of their durations minus their children's.
    pub self_ms: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Trace::default();
        let job = t.record("job", None, Duration::from_millis(10));
        t.record("a", Some(job), Duration::from_millis(3));
        let b = t.record("b", Some(job), Duration::from_millis(4));
        t.record("c", Some(b), Duration::from_millis(1));
        let job2 = t.record("job", None, Duration::from_millis(5));
        t.record("a", Some(job2), Duration::from_millis(2));
        let s = t.summary();
        assert_eq!(s["job"].count, 2);
        assert!((s["job"].self_ms - 6.0).abs() < 1e-9);
        assert!((s["a"].self_ms - 5.0).abs() < 1e-9);
        assert!((s["b"].self_ms - 3.0).abs() < 1e-9);
    }

    #[test]
    fn timed_spans_nest() {
        let mut t = Trace::default();
        let outer = t.begin("outer", None);
        let (v, _) = t.time("inner", Some(outer), || 41 + 1);
        t.end(outer);
        assert_eq!(v, 42);
        let s = t.summary();
        assert_eq!(s["inner"].count, 1);
        assert!(s["outer"].self_ms >= 0.0);
    }
}
