//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the public
//! calls into each layer. Each span keeps its name, start, end, parent
//! and the id of the op it belongs to; they stay in memory until the
//! run ends and are then written out as JSON lines.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use serde::Value;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary the span wraps, e.g. `trace.capture.cg`.
    pub name: String,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Records nested spans on one thread.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    next_op: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), stack: Vec::new(), next_op: 0 }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` as a new op whose root span is `name`; returns its
    /// output and the root span's duration in seconds.
    pub fn op<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        assert!(self.stack.is_empty(), "ops do not nest");
        self.next_op += 1;
        let root = self.spans.len();
        let out = self.span(name, f);
        (out, self.spans[root].secs())
    }

    /// Run `f` inside a child span of the innermost open span.
    pub fn span<R>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.next_op,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Durations in seconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::secs).collect()
    }

    /// Nanoseconds of direct children under each span. Children run on
    /// the parent's thread, so they never overlap and simply add.
    fn child_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        child
    }

    /// Seconds each span spent outside its children, per span name.
    pub fn self_times(&self) -> BTreeMap<String, Vec<f64>> {
        let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(self.child_ns()) {
            let own = (s.end_ns - s.start_ns).saturating_sub(child);
            out.entry(s.name.clone()).or_default().push(own as f64 * 1e-9);
        }
        out
    }

    /// For every root span named `name`, the share of its duration its
    /// direct children cover.
    pub fn coverage(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.child_ns())
            .filter(|(s, _)| s.parent.is_none() && s.name == name && s.end_ns > s.start_ns)
            .map(|(s, child)| child as f64 / (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let v = Value::Map(vec![
                ("name".into(), Value::Str(s.name.clone())),
                ("start_ns".into(), Value::UInt(s.start_ns)),
                ("end_ns".into(), Value::UInt(s.end_ns)),
                ("parent".into(), s.parent.map_or(Value::Null, |p| Value::UInt(p as u64))),
                ("op".into(), Value::UInt(s.op)),
            ]);
            let line = serde_json::to_string(&v).map_err(std::io::Error::other)?;
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name: name.into(), start_ns, end_ns, parent, op: 1 }
    }

    #[test]
    fn self_time_subtracts_direct_children_and_coverage_counts_them() {
        // root [0, 10ms) holds a [0, 4ms) and b [4, 8ms); b holds c [4, 7ms).
        let ms = 1_000_000;
        let mut tr = Tracer::new();
        tr.spans = vec![
            span("root", 0, 10 * ms, None),
            span("a", 0, 4 * ms, Some(0)),
            span("b", 4 * ms, 8 * ms, Some(0)),
            span("c", 4 * ms, 7 * ms, Some(2)),
        ];
        let selfs = tr.self_times();
        assert_eq!(selfs["root"], [0.002]);
        assert_eq!(selfs["a"], [0.004]);
        assert_eq!(selfs["b"], [0.001]);
        assert_eq!(selfs["c"], [0.003]);
        assert_eq!(tr.coverage("root"), [0.8]);
        assert!(tr.coverage("b").is_empty(), "only root spans have coverage");
    }

    #[test]
    fn recorded_spans_nest_and_share_their_op_id() {
        let mut tr = Tracer::new();
        let (out, secs) = tr.op("root", |tr| tr.span("b", |tr| tr.span("c", |_| 7)));
        assert_eq!(out, 7);
        tr.op("next", |_| ());
        assert_eq!(tr.durations("root"), [secs]);
        let parents: Vec<_> = tr.spans.iter().map(|s| (s.parent, s.op)).collect();
        assert_eq!(parents, [(None, 1), (Some(0), 1), (Some(1), 1), (None, 2)]);
        assert!(tr.spans.iter().all(|s| s.start_ns <= s.end_ns));
    }
}
