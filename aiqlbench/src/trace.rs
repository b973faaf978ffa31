//! In-memory spans for the traced run.
//!
//! Every public call into a layer is wrapped in a span: name, start, end,
//! parent span, and the id of the operation (query or batch) it belongs
//! to. Counters the layers already return (`ExecStats::ops`) become
//! synthesized child spans of the call that produced them. Spans stay in
//! memory and are written out once, at exit. A layer's self time is its
//! span minus the part of that interval its children cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

/// One clock origin for every tracer, so spans recorded on different
/// threads share a timeline.
fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the process recorded its first span.
    pub start: u64,
    pub end: u64,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
    /// The operation the span belongs to.
    pub op: u64,
}

/// Span recorder for one thread.
pub struct Tracer {
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            spans: Vec::with_capacity(1 << 16),
            stack: Vec::new(),
            op: 0,
        }
    }

    fn now(&self) -> u64 {
        origin().elapsed().as_nanos() as u64
    }

    /// Runs `f` as a new operation: a root span named `name` with a fresh
    /// operation id.
    pub fn operation<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        self.op += 1;
        self.span(name, f)
    }

    /// Runs `f` inside a span that is a child of the innermost open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let idx = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(idx);
        let r = f(self);
        self.stack.pop();
        self.spans[idx].end = self.now();
        r
    }

    /// Id of the latest operation.
    pub fn op(&self) -> u64 {
        self.op
    }

    /// Records a span whose interval is known after the fact (an operator
    /// timing reported by a layer), returning its index.
    pub fn record(&mut self, name: &'static str, start: u64, end: u64, parent: usize) -> usize {
        self.spans.push(Span {
            name,
            start,
            end: end.max(start),
            parent: Some(parent),
            op: self.op,
        });
        self.spans.len() - 1
    }

    /// The most recently closed or recorded span with `name`.
    pub fn last(&self, name: &str) -> Option<(usize, Span)> {
        self.spans
            .iter()
            .enumerate()
            .rev()
            .find(|(_, s)| s.name == name)
            .map(|(i, s)| (i, *s))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another tracer's spans, renumbering its span indices and
    /// operation ids after this tracer's.
    pub fn extend(&mut self, other: &Tracer) {
        let base = self.spans.len();
        let op_base = self.op;
        self.spans.extend(other.spans.iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            op: s.op + op_base,
            ..*s
        }));
        self.op += other.op;
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.op, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals, each clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            let clipped = |&(a, b): &(u64, u64)| (a.max(s.start), b.min(s.end));
            kids.iter_mut().for_each(|k| *k = clipped(k));
            kids.retain(|&(a, b)| b > a);
            kids.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in kids {
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.end - s.start) - covered
        })
        .collect()
}

/// Total self time (ns) per span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut by_name = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *by_name.entry(s.name).or_insert(0) += t;
    }
    by_name
}

/// [`self_time_by_name`] summed over several tracers.
pub fn self_time_of(tracers: &[&Tracer]) -> BTreeMap<&'static str, u64> {
    let mut by_name = BTreeMap::new();
    for t in tracers {
        for (name, ns) in self_time_by_name(t.spans()) {
            *by_name.entry(name).or_insert(0) += ns;
        }
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("query", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)),
            // Overhangs the parent: only 90..100 counts against it.
            span("c", 90, 120, Some(0)),
            span("d", 12, 18, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 14, 30, 30, 6]);
    }

    #[test]
    fn self_time_of_a_leaf_is_its_duration() {
        let spans = [span("x", 5, 9, None)];
        assert_eq!(self_times(&spans), vec![4]);
    }

    #[test]
    fn self_times_group_by_name() {
        let spans = [
            span("query", 0, 10, None),
            span("scan", 0, 4, Some(0)),
            span("query", 20, 30, None),
            span("scan", 22, 25, Some(2)),
        ];
        let by = self_time_by_name(&spans);
        assert_eq!(by["query"], 13);
        assert_eq!(by["scan"], 7);
    }

    #[test]
    fn tracer_nests_spans_under_one_operation() {
        let mut t = Tracer::new();
        t.operation("query", |t| {
            t.span("lang.parse", |_| ());
            t.span("schedule.execute", |t| {
                let (idx, s) = t.last("schedule.execute").unwrap();
                t.record("scan", s.start, s.start, idx);
            });
        });
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[3].parent, Some(2));
        assert!(s.iter().all(|x| x.op == 1));
        assert!(s[0].end >= s[2].end);
    }
}
