//! In-memory span recording for the traced run.
//!
//! A span is one timed call into a layer: its name, start and end (ns since the trace
//! epoch), the span that caused it, and the operation it belongs to.  Each worker keeps
//! a fixed-capacity reservoir of spans (Vitter's Algorithm R), so memory stays bounded
//! and the kept spans are a uniform sample of the whole timed phase.  Spans are written
//! out when the cell ends, and each layer's self time — its duration minus the part its
//! child spans cover — is computed from them.

use std::collections::HashMap;
use std::io::Write;
use std::time::Instant;

use crate::stats::Reservoir;

/// One recorded span.  `id` is unique within a trace; `parent` is 0 for a root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// The shared time origin of one trace.
#[derive(Debug, Clone, Copy)]
pub struct TraceClock {
    epoch: Instant,
}

impl TraceClock {
    pub fn new() -> Self {
        TraceClock { epoch: Instant::now() }
    }

    #[inline]
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// A per-thread span reservoir.  Ids are `thread << 40 | sequence`, so threads never
/// collide and no id is 0.
#[derive(Debug)]
pub struct SpanBuf {
    spans: Reservoir<Span>,
    next_id: u64,
}

impl SpanBuf {
    pub fn new(thread: u64, capacity: usize) -> Self {
        SpanBuf { spans: Reservoir::new(capacity, thread ^ 0x7ACE), next_id: (thread << 40) | 1 }
    }

    /// A fresh span id.
    pub fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Offers a span to the reservoir.
    #[inline]
    pub fn record(&mut self, span: Span) {
        self.spans.offer(span);
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_items()
    }
}

/// Self time of every span: its duration minus the union of its children's intervals,
/// clipped to the span.  Returned in the order of `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get(&s.id) else { return s.duration() };
            let mut clipped: Vec<(u64, u64)> = kids
                .iter()
                .map(|&(a, b)| (a.max(s.start), b.min(s.end)))
                .filter(|(a, b)| a < b)
                .collect();
            clipped.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start;
            for (a, b) in clipped {
                let a = a.max(cursor);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration() - covered
        })
        .collect()
}

/// Writes `spans` with their self times as CSV.
pub fn write_csv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "name,id,parent,op,start_ns,end_ns,self_ns")?;
    for (s, own) in spans.iter().zip(selfs) {
        writeln!(out, "{},{},{},{},{},{},{}", s.name, s.id, s.parent, s.op, s.start, s.end, own)?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span { name, id, parent, op: 1, start, end }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = [
            span("root", 1, 0, 0, 100),
            // Two overlapping children: together they cover 10..50.
            span("a", 2, 1, 10, 40),
            span("b", 3, 1, 30, 50),
            // A grandchild covers part of `a` only.
            span("c", 4, 2, 15, 25),
            // A child sticking out of its parent is clipped to it.
            span("d", 5, 1, 90, 130),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 30 - 10, 20, 10, 40]);
    }

    #[test]
    fn leaf_self_time_is_duration() {
        assert_eq!(self_times(&[span("x", 9, 0, 5, 17)]), vec![12]);
    }

    #[test]
    fn reservoir_is_bounded_and_uniform() {
        let mut buf = SpanBuf::new(3, 8);
        for i in 0..1000 {
            let id = buf.fresh_id();
            buf.record(span("op", id, 0, i, i + 1));
        }
        let kept = buf.into_spans();
        assert_eq!(kept.len(), 8);
        assert!(kept.iter().all(|s| s.id >> 40 == 3));
        // Algorithm R keeps late spans too: the sample spans the whole stream.
        assert!(kept.iter().any(|s| s.start >= 500));
    }
}
