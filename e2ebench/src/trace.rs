//! Spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start and an end (nanoseconds since the run's
//! origin), the span that caused it, and a request id shared by the spans
//! of one session or slot. Spans stay in memory and are written out once,
//! when the run ends. A disabled tracer records nothing.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Identifies a span within a run: its index in the tracer's buffer.
pub type SpanId = u64;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique id within the run.
    pub id: SpanId,
    /// The layer call the span wraps, as `layer.call`.
    pub name: &'static str,
    /// Start, in ns since the run's origin.
    pub start_ns: u64,
    /// End, in ns since the run's origin.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Session or slot the span belongs to.
    pub rid: u64,
}

/// A run's span buffer.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts at `origin`.
    pub fn new(origin: Instant, enabled: bool) -> Self {
        Tracer {
            origin,
            enabled,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts or stops keeping spans.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Nanoseconds from the origin to `t`.
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span from `start` to `end`; `None` when disabled.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        rid: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len() as SpanId;
        self.spans.push(Span {
            id,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            rid,
        });
        Some(id)
    }

    /// Opens a span starting now, so spans it causes can name it as their
    /// parent before it ends; [`close`](Self::close) ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, rid: u64) -> Option<SpanId> {
        let now = Instant::now();
        self.record(name, now, now, parent, rid)
    }

    /// Ends a span [`open`](Self::open)ed on this tracer.
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            let end = self.ns(Instant::now());
            self.spans[id as usize].end_ns = end;
        }
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON array, one span per line, ordered by
    /// start time.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut spans = self.spans.clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "[")?;
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"rid\":{}}}{}",
                s.id, s.name, s.start_ns, s.end_ns, parent, s.rid, sep
            )?;
        }
        writeln!(w, "]")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_carry_parent_and_request_ids() {
        let origin = Instant::now();
        let mut t = Tracer::new(origin, true);
        let root = t.open("bench.phase", None, 0);
        let start = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(1));
        let child = t.record("layer.call", start, Instant::now(), root, 7);
        t.close(root);
        let find = |id| t.spans().iter().find(|s| Some(s.id) == id).unwrap();
        let (phase, kid) = (find(root), find(child));
        assert_eq!((kid.name, kid.parent, kid.rid), ("layer.call", root, 7));
        assert!(phase.start_ns <= kid.start_ns && kid.end_ns <= phase.end_ns);
        assert!(kid.end_ns - kid.start_ns >= 1_000_000);

        let mut off = Tracer::new(origin, false);
        assert_eq!(off.record("x", origin, origin, None, 0), None);
        assert!(off.spans().is_empty());
    }
}
