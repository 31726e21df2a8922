//! The benchmark's own tracer: in-memory spans recorded around the
//! calls into each layer (spans inside the program are a later change),
//! written out as JSON lines when the traced pass ends.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// Spans of one request share its stream index.
    pub req: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    req: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            req: 0,
        }
    }

    /// Subsequent spans belong to request `req`.
    pub fn set_request(&mut self, req: u64) {
        self.req = req;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under whatever span is
    /// open. The tracer is handed back to `f` so it can open children.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            req: self.req,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per span: its duration minus the part its direct children
/// cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let p = p as usize;
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// For every span name: per request that has at least one such span, the
/// summed self time in µs.
pub fn per_request_self_us(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let own = self_times(spans);
    let mut sums: BTreeMap<(&'static str, u64), u64> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(own) {
        *sums.entry((s.name, s.req)).or_default() += ns;
    }
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for ((name, _), ns) in sums {
        out.entry(name).or_default().push(ns as f64 / 1e3);
    }
    out
}

/// Writes the spans as JSON lines (one object per span, with its self
/// time) to `path`.
pub fn write_jsonl(spans: &[Span], path: &Path) -> io::Result<()> {
    let own = self_times(spans);
    let mut w = io::BufWriter::new(std::fs::File::create(path)?);
    for (id, (s, self_ns)) in spans.iter().zip(own).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{id},\"name\":\"{}\",\"req\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
            s.name, s.req, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>, req: u64) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            req,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span("request", 0, 100, None, 0),
            span("solve", 10, 70, Some(0), 0),
            span("enumerate", 20, 40, Some(1), 0),
            span("satisfy", 40, 50, Some(1), 0),
            span("encode", 80, 90, Some(0), 0),
        ];
        assert_eq!(self_times(&spans), vec![30, 30, 20, 10, 10]);
        // Self times partition the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn per_request_sums_group_by_name_and_request() {
        let spans = vec![
            span("enumerate", 0, 1_000, None, 0),
            span("enumerate", 1_000, 4_000, None, 0),
            span("enumerate", 0, 2_000, None, 1),
            span("satisfy", 0, 500, None, 1),
        ];
        let by = per_request_self_us(&spans);
        assert_eq!(by["enumerate"], vec![4.0, 2.0]);
        assert_eq!(by["satisfy"], vec![0.5]);
    }

    #[test]
    fn scopes_nest_and_close() {
        let mut t = Tracer::new();
        t.set_request(7);
        let v = t.scope("outer", |t| t.scope("inner", |_| 42));
        assert_eq!(v, 42);
        let s = t.spans();
        assert_eq!((s[0].name, s[0].parent), ("outer", None));
        assert_eq!((s[1].name, s[1].parent, s[1].req), ("inner", Some(0), 7));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }
}
