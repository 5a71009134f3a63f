//! Spans recorded from the outside, around calls into a layer's public
//! functions: name, start, end, the span that caused it, the op it belongs
//! to. Kept in memory, written out once at exit. A layer's self time is
//! its span minus the part its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Which op (request, batch, …) of its kind this span belongs to.
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder for one thread of control. It is `Sync` (a mutex, never
/// contended) only so that an `Io` shim deep inside a facade call can
/// record into the same tracer as the caller; the open-span stack assumes
/// the calls nest, which they do on one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    state: Mutex<State>,
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            state: Mutex::default(),
        }
    }
}

impl Tracer {
    fn state(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("tracer poisoned: a traced call panicked")
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Spans opened from now on belong to op `op`.
    pub fn set_op(&self, op: u64) {
        self.state().op = op;
    }

    /// Runs `f` inside a span named `name`, child of whatever span is open.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let index = {
            let mut s = self.state();
            let index = s.spans.len();
            let span = Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent: s.open.last().copied(),
                op: s.op,
            };
            s.spans.push(span);
            s.open.push(index);
            index
        };
        // Clock reads sit innermost so bookkeeping lands in the parent.
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        let mut s = self.state();
        s.spans[index].start_ns = start;
        s.spans[index].end_ns = end;
        let closed = s.open.pop();
        debug_assert_eq!(closed, Some(index));
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.state().spans.clone()
    }

    /// Index where the next span will land — a cursor for [`totals_since`].
    pub fn mark(&self) -> usize {
        self.state().spans.len()
    }
}

/// Self time of every span: duration minus the durations of its direct
/// children (children of one parent never overlap — one thread).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Per-name totals over `spans[from..]`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Total {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals_since(spans: &[Span], from: usize) -> BTreeMap<&'static str, Total> {
    let own = self_times_ns(spans);
    let mut out: BTreeMap<&'static str, Total> = BTreeMap::new();
    for (span, own) in spans.iter().zip(own).skip(from) {
        let t = out.entry(span.name).or_default();
        t.count += 1;
        t.total_ns += span.duration_ns();
        t.self_ns += own;
    }
    out
}

/// The trace file: one JSON object per span, in start order.
pub fn to_json(spans: &[Span]) -> String {
    let own = self_times_ns(spans);
    let mut out = String::from("[\n");
    for (i, (s, own)) in spans.iter().zip(own).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
             \"self_ns\": {own}, \"parent\": {parent}, \"op\": {}}}",
            s.name, s.start_ns, s.end_ns, s.op
        );
        out.push_str(if i + 1 == spans.len() { "\n" } else { ",\n" });
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // request [0,100] → parse [5,15], answer [20,80] → join [30,70]
        let spans = [
            span("request", 0, 100, None),
            span("parse", 5, 15, Some(0)),
            span("answer", 20, 80, Some(0)),
            span("join", 30, 70, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 10, 20, 40]);
        // Self times partition the root: nothing is counted twice or lost.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
        let totals = totals_since(&spans, 0);
        assert_eq!(
            totals["answer"],
            Total {
                count: 1,
                total_ns: 60,
                self_ns: 20
            }
        );
        assert_eq!(totals_since(&spans, 3).len(), 1);
    }

    #[test]
    fn tracer_nests_and_tags_ops() {
        let t = Tracer::default();
        t.set_op(7);
        let v = t.span("outer", || t.span("inner", || 1) + t.span("inner", || 2));
        assert_eq!(v, 3);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 7));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
        let json = to_json(&spans);
        assert!(json.contains("\"name\": \"inner\"") && json.contains("\"parent\": 0"));
    }
}
