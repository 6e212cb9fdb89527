//! In-memory span recorder for the traced pass.
//!
//! Every span holds a name, start, end, parent and op id. Spans stay
//! in memory while the pass runs and are written out once, after it.
//! A span's *self time* is its duration minus the part of its interval
//! its direct children cover; because children nest strictly inside
//! their parent, that part is the sum of the children's durations.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Name of the root span wrapping one op; every layer span of the op
/// descends from it.
pub const OP: &str = "op";

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `solve` or `trace.parse`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: u64,
}

impl Span {
    /// Wall time the span covers.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans against one clock.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn end(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost-first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a leaf span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Opens the root span of the next op; close it with
    /// [`end`](Tracer::end).
    pub fn begin_op(&mut self) -> usize {
        assert!(self.open.is_empty(), "ops must not nest");
        self.op += 1;
        self.begin(OP)
    }

    /// Self time of every span, in opening order.
    pub fn self_times_ns(&self) -> Vec<u64> {
        self_times_ns(&self.spans)
    }

    /// Summed self time per span name, over every op.
    pub fn self_ns_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut totals = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            *totals.entry(span.name).or_insert(0) += self_ns;
        }
        totals
    }

    /// Durations of the op root spans, in op order.
    pub fn op_durations_ns(&self) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == OP)
            .map(Span::duration_ns)
            .collect()
    }

    /// Share of the op spans' time that layer spans account for:
    /// one minus the ops' own self time over their duration.
    pub fn coverage(&self) -> f64 {
        let self_times = self.self_times_ns();
        let (mut op_total, mut op_self) = (0u64, 0u64);
        for (span, self_ns) in self.spans.iter().zip(self_times) {
            if span.name == OP {
                op_total += span.duration_ns();
                op_self += self_ns;
            }
        }
        if op_total == 0 {
            0.0
        } else {
            1.0 - op_self as f64 / op_total as f64
        }
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"op\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                span.op, span.name, span.start_ns, span.end_ns
            );
        }
        out
    }
}

/// Self time of each span: its duration minus its direct children's.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            child_ns[p] += span.duration_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // op [0,100) ⊃ solve [10,60) ⊃ inner [20,30); place [70,90).
        let spans = vec![
            span(OP, 0, 100, None),
            span("solve", 10, 60, Some(0)),
            span("inner", 20, 30, Some(1)),
            span("place", 70, 90, Some(0)),
        ];
        // The grandchild is charged to solve, not again to op.
        assert_eq!(self_times_ns(&spans), vec![30, 40, 10, 20]);
        let total: u64 = self_times_ns(&spans).iter().sum();
        assert_eq!(total, 100, "self times partition the root span");
    }

    #[test]
    fn tracer_nests_and_reports_coverage() {
        let mut tracer = Tracer::new();
        let op = tracer.begin_op();
        let outer = tracer.begin("solve");
        let x = tracer.time("inner", || 21 * 2);
        tracer.end(outer);
        tracer.end(op);
        assert_eq!(x, 42);
        let spans = &tracer.spans;
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans.iter().all(|s| s.op == 1));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let by_name = tracer.self_ns_by_name();
        let sum: u64 = by_name.values().sum();
        assert_eq!(sum, spans[0].duration_ns());
        let coverage = tracer.coverage();
        assert!((0.0..=1.0).contains(&coverage));
        assert_eq!(tracer.to_jsonl().lines().count(), 3);
    }

    #[test]
    #[should_panic(expected = "innermost-first")]
    fn closing_out_of_order_is_a_bug() {
        let mut tracer = Tracer::new();
        let a = tracer.begin("a");
        let _b = tracer.begin("b");
        tracer.end(a);
    }
}
