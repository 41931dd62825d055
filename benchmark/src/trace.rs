//! Spans recorded at layer boundaries, from outside the layers.
//!
//! The traced run wraps each call into a layer's public function in a span
//! (name, start, end, the span that caused it, the job it belongs to), keeps
//! them in memory, and writes them out when the run ends. A layer's *self
//! time* is its span minus the part its child spans cover.

use jsonio::Value;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// Spans of one job (or one request) share this.
    pub job: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A single-threaded span recorder; each client thread owns one, all
/// started from the same `epoch` so their clocks agree.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one; close it with [`exit`].
    ///
    /// [`exit`]: Tracer::exit
    pub fn enter(&mut self, name: &'static str, job: u64) -> usize {
        let id = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            job,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) -> u64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost-first");
        self.spans[id].end_ns = self.now();
        self.spans[id].ns()
    }

    /// Run `f` inside a span and return its result.
    pub fn span<R>(&mut self, name: &'static str, job: u64, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, job);
        let r = f();
        self.exit(id);
        r
    }
}

/// Self time of every span, in nanoseconds, by span index: duration minus
/// the durations of direct children. Children of one parent never overlap
/// here (one thread opens and closes them in turn), so summing them is the
/// part of the parent they cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.ns());
        }
    }
    own
}

/// The trace file: one object with the spans of every tracer of the run.
pub fn to_json(workload: &str, seed: u64, tracers: &[Tracer]) -> Value {
    let mut spans = Vec::new();
    for (thread, t) in tracers.iter().enumerate() {
        for s in &t.spans {
            spans.push(Value::object([
                ("name", Value::from(s.name)),
                ("thread", Value::from(thread)),
                ("job", Value::from(s.job)),
                ("start_ns", Value::from(s.start_ns)),
                ("end_ns", Value::from(s.end_ns)),
                ("parent", Value::from(s.parent)),
            ]));
        }
    }
    Value::object([
        ("workload", Value::from(workload)),
        ("seed", Value::from(seed)),
        ("spans", Value::Array(spans)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, job: u64) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            job,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // job [0,100) > profile [10,70) > {track [20,40), pet [40,50)};
        // job > render [70,95).
        let spans = vec![
            span("job", 0, 100, None, 1),
            span("profile", 10, 70, Some(0), 1),
            span("track", 20, 40, Some(1), 1),
            span("pet", 40, 50, Some(1), 1),
            span("render", 70, 95, Some(0), 1),
        ];
        assert_eq!(self_times(&spans), vec![15, 30, 20, 10, 25]);
        // Grandchildren are not subtracted twice: the selves add up to the root.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn tracer_nests_and_times_monotonically() {
        let mut t = Tracer::new(Instant::now());
        let outer = t.enter("job", 7);
        let got = t.span("lex", 7, || 42);
        assert_eq!(got, 42);
        t.exit(outer);
        assert_eq!(t.spans[1].parent, Some(outer));
        assert_eq!(t.spans[0].parent, None);
        assert!(t.spans[0].start_ns <= t.spans[1].start_ns);
        assert!(t.spans[1].end_ns <= t.spans[0].end_ns);
        let doc = to_json("w", 3, &[t]);
        assert_eq!(
            doc.get("spans").and_then(Value::as_array).map(<[_]>::len),
            Some(2)
        );
    }
}
