//! In-memory spans around the benchmark's own calls into each layer.
//! Spans are written out once, when the run ends; with tracing off every
//! call is a no-op.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// Operation the span belongs to; spans of one request share it.
    pub request: u64,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

impl SpanId {
    /// No enclosing span.
    pub const NONE: SpanId = SpanId(None);
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Pause or resume recording (a traced run measures an untraced
    /// phase first, for the tracing overhead).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    pub fn begin(&mut self, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: parent.0,
            request,
        });
        SpanId(Some(self.spans.len() - 1))
    }

    /// Close `id` and return its duration (zero when tracing is off).
    pub fn end(&mut self, id: SpanId) -> Duration {
        match id.0 {
            Some(i) => {
                let span = &mut self.spans[i];
                span.end = self.origin.elapsed();
                span.end - span.start
            }
            None => Duration::ZERO,
        }
    }

    /// Run `f` inside a span and return its result with the span's length.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let id = self.begin(name, parent, request);
        let t = Instant::now();
        let out = f();
        let took = t.elapsed();
        self.end(id);
        (out, took)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name over the spans `keep` selects: each
    /// span's length minus the part its children cover (children never
    /// overlap: the benchmark is one thread).
    pub fn self_times(&self, keep: impl Fn(&Span) -> bool) -> BTreeMap<&'static str, Duration> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_time) {
            if !keep(s) {
                continue;
            }
            *out.entry(s.name).or_insert(Duration::ZERO) +=
                (s.end - s.start).saturating_sub(children);
        }
        out
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent},\"request\":{}}}",
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
                s.request
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::new(true);
        let root = tr.begin("op", SpanId(None), 1);
        tr.time("child", root, 1, || {
            std::thread::sleep(Duration::from_millis(5))
        });
        std::thread::sleep(Duration::from_millis(5));
        tr.end(root);
        let st = tr.self_times(|_| true);
        assert!(st["child"] >= Duration::from_millis(5));
        assert!(st["op"] >= Duration::from_millis(5));
        assert_eq!(tr.spans().len(), 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let id = tr.begin("op", SpanId(None), 1);
        assert_eq!(tr.end(id), Duration::ZERO);
        assert!(tr.spans().is_empty());
    }
}
