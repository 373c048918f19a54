//! In-memory spans recorded by the benchmark around its calls into the
//! crates, and the self-time analysis run over them.
//!
//! A span has a name, a start and an end on one monotonic clock, the span
//! that caused it, and a key that ties together the spans of one request
//! or session. A span's self time is its duration minus the part of its
//! interval that its child spans cover.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-boundary name, such as `request` or `nn.decode_step`.
    pub name: &'static str,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Request, session, tick or step identifier shared by related spans.
    pub key: u64,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// A span recorder. When disabled every call is a no-op returning a
/// placeholder id, so untraced runs pay only a branch.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer's origin for an instant.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span from two instants.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        key: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.push(Span {
            name,
            parent,
            key,
            start_ns,
            end_ns: end_ns.max(start_ns),
        })
    }

    /// Opens a span starting at `start`, so that spans it causes can
    /// name it as their parent before it ends; close it with
    /// [`Tracer::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        key: u64,
        start: Instant,
    ) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let start_ns = self.ns(start);
        self.push(Span {
            name,
            parent,
            key,
            start_ns,
            end_ns: start_ns,
        })
    }

    /// Ends a span opened with [`Tracer::open`] at `end`.
    pub fn close(&mut self, id: SpanId, end: Instant) {
        if self.enabled {
            let end_ns = self.ns(end);
            self.spans[id].end_ns = end_ns.max(self.spans[id].start_ns);
        }
    }

    fn push(&mut self, span: Span) -> SpanId {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            let dur = s.end_ns - s.start_ns;
            dur - covered(s.start_ns, s.end_ns, kids)
        })
        .collect()
}

/// Length of `[lo, hi)` covered by the union of `intervals`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Depth of every span in the tree (roots are 0).
pub fn depths(spans: &[Span]) -> Vec<usize> {
    let mut d = vec![0usize; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        // Parents are recorded before their children are closed, but a
        // closed-interval `record` may land after them: walk the chain.
        let mut depth = 0;
        let mut p = s.parent;
        while let Some(pi) = p {
            depth += 1;
            p = spans[pi].parent;
        }
        d[i] = depth;
    }
    d
}

/// Per-name totals: count, summed duration and summed self time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NameTotals {
    /// Span name.
    pub name: &'static str,
    /// Spans with this name.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed self time, nanoseconds.
    pub self_ns: u64,
}

/// Aggregates spans by name, in first-seen order.
pub fn totals_by_name(spans: &[Span]) -> Vec<NameTotals> {
    let selfs = self_times(spans);
    let mut out: Vec<NameTotals> = Vec::new();
    for (s, &own) in spans.iter().zip(&selfs) {
        let idx = match out.iter().position(|t| t.name == s.name) {
            Some(i) => i,
            None => {
                out.push(NameTotals {
                    name: s.name,
                    count: 0,
                    total_ns: 0,
                    self_ns: 0,
                });
                out.len() - 1
            }
        };
        let t = &mut out[idx];
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += own;
    }
    out
}

/// Share of the time spent inside spans at depth `depth` that is their
/// own (not covered by deeper spans); 0 when no such span exists.
pub fn self_share_at_depth(spans: &[Span], depth: usize) -> f64 {
    let selfs = self_times(spans);
    let ds = depths(spans);
    let (mut own, mut total) = (0u64, 0u64);
    for ((s, &o), &d) in spans.iter().zip(&selfs).zip(&ds) {
        if d == depth {
            own += o;
            total += s.end_ns - s.start_ns;
        }
    }
    if total == 0 {
        0.0
    } else {
        own as f64 / total as f64
    }
}

/// Renders the spans and their per-name totals as one JSON document.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"totals\":["
    );
    for (i, t) in totals_by_name(spans).iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}{{\"name\":\"{}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
            t.name, t.count, t.total_ns, t.self_ns
        );
    }
    out.push_str("],\"spans\":[");
    for (i, (s, own)) in spans.iter().zip(&selfs).enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{sep}{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"key\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
            s.name, s.key, s.start_ns, s.end_ns
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            key: 0,
            start_ns,
            end_ns,
        }
    }

    /// root [0, 100) with children [10, 30), [20, 50) (overlapping) and
    /// [90, 120) (running past the root's end); the first child has its
    /// own child [12, 18).
    fn tree() -> Vec<Span> {
        vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 20, 50),
            span("c", Some(0), 90, 120),
            span("leaf", Some(1), 12, 18),
        ]
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let selfs = self_times(&tree());
        // Root: children cover [10, 50) and [90, 100) = 50 of 100.
        assert_eq!(selfs, vec![50, 14, 30, 30, 6]);
        assert_eq!(depths(&tree()), vec![0, 1, 1, 1, 2]);
    }

    #[test]
    fn totals_and_depth_shares() {
        let spans = tree();
        let totals = totals_by_name(&spans);
        assert_eq!(totals.len(), 5);
        assert_eq!(totals[0].self_ns, 50);
        // Depth 1: self 14 + 30 + 30 of duration 20 + 30 + 30.
        let share = self_share_at_depth(&spans, 1);
        assert!((share - 74.0 / 80.0).abs() < 1e-12);
        assert_eq!(self_share_at_depth(&spans, 5), 0.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("x", None, 1, Instant::now());
        t.close(id, Instant::now());
        let now = Instant::now();
        t.record("y", None, 2, now, now);
        assert!(t.spans().is_empty());
        let mut on = Tracer::new(true);
        let root = on.open("root", None, 7, Instant::now());
        let child = on.record("child", Some(root), 7, Instant::now(), Instant::now());
        on.close(root, Instant::now());
        assert_eq!(on.spans().len(), 2);
        assert_eq!(on.spans()[child].parent, Some(root));
        let json = to_json("w", 3, on.spans());
        assert!(json.starts_with("{\"workload\":\"w\",\"seed\":3"));
        assert!(json.contains("\"name\":\"child\",\"parent\":0"));
    }
}
