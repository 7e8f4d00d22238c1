//! Benchmark-owned spans around the calls into each layer.
//!
//! The traced run wraps every public call it makes in a [`Span`]
//! `{name, start_ns, end_ns, parent, request}`.  Spans stay in memory while
//! the run measures and are written out as Chrome-trace JSON once it ends.
//! A disabled tracer runs the wrapped call and records nothing, so the same
//! driving code serves the untraced (end-to-end) and traced runs.

use std::collections::HashMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a span inside its tracer.
pub type SpanId = u32;

/// What `begin` hands back when tracing is off.
const NO_SPAN: SpanId = SpanId::MAX;

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<call>`; the layer prefix is the crate the call lands in.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Spans of one request share this identifier.
    pub request: Option<u64>,
    /// Which benchmark thread recorded it (Chrome-trace `tid`).
    pub thread: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span buffer owned by one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    thread: u32,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only runs the wrapped calls.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled,
            thread: 0,
            spans: Vec::new(),
        }
    }

    /// A second buffer on the same clock for another thread; fold it back
    /// with [`Tracer::absorb`] once that thread has been joined.
    pub fn fork(&self, thread: u32) -> Tracer {
        Tracer {
            epoch: self.epoch,
            enabled: self.enabled,
            thread,
            spans: Vec::new(),
        }
    }

    /// Appends `other`'s spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span now; close it with [`Tracer::end`].
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: Option<u64>,
    ) -> SpanId {
        if !self.enabled {
            return NO_SPAN;
        }
        let now = self.ns(Instant::now());
        self.push(name, now, now, parent, request)
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: SpanId) {
        if id == NO_SPAN {
            return;
        }
        let now = self.ns(Instant::now());
        self.spans[id as usize].end_ns = now;
    }

    /// Records a span whose endpoints were taken elsewhere (another thread
    /// stamped the start, this one observed the end).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request: Option<u64>,
    ) -> SpanId {
        if !self.enabled {
            return NO_SPAN;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.push(name, start_ns, end_ns, parent, request)
    }

    fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        request: Option<u64>,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: parent.filter(|&p| p != NO_SPAN),
            request,
            thread: self.thread,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, request);
        let out = f();
        self.end(id);
        out
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (µs) of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Share of the time inside spans called `parent_name` that their child
    /// spans cover: 1.0 means the stages sum to the wall clock.
    pub fn coverage(&self, parent_name: &str) -> f64 {
        let children = children_by_parent(&self.spans);
        let (mut covered, mut total) = (0u64, 0u64);
        for (id, span) in self.spans.iter().enumerate() {
            if span.name != parent_name {
                continue;
            }
            total += span.duration_ns();
            covered += span.duration_ns() - self_time_ns(&self.spans, &children, id as SpanId);
        }
        if total == 0 {
            0.0
        } else {
            covered as f64 / total as f64
        }
    }

    /// Total self time (ns) per span name, largest first.
    pub fn self_time_by_name(&self) -> Vec<(&'static str, u64, usize)> {
        let children = children_by_parent(&self.spans);
        let mut by_name: HashMap<&'static str, (u64, usize)> = HashMap::new();
        for (id, span) in self.spans.iter().enumerate() {
            let entry = by_name.entry(span.name).or_default();
            entry.0 += self_time_ns(&self.spans, &children, id as SpanId);
            entry.1 += 1;
        }
        let mut rows: Vec<_> = by_name.into_iter().map(|(n, (t, c))| (n, t, c)).collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        rows
    }

    /// Writes the spans to `path` as Chrome-trace JSON.
    pub fn write_chrome_file(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        self.write_chrome(&mut out)?;
        out.flush()
    }

    /// Writes the spans as Chrome-trace JSON (`chrome://tracing`, Perfetto).
    pub fn write_chrome(&self, out: &mut impl Write) -> io::Result<()> {
        out.write_all(b"{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")?;
        for (id, s) in self.spans.iter().enumerate() {
            let layer = s.name.split('.').next().unwrap_or("bench");
            write!(
                out,
                "{}{{\"name\":\"{}\",\"cat\":\"{layer}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id}",
                if id == 0 { "" } else { ",\n" },
                s.name,
                s.thread,
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
            )?;
            if let Some(parent) = s.parent {
                write!(out, ",\"parent\":{parent}")?;
            }
            if let Some(request) = s.request {
                write!(out, ",\"request\":{request}")?;
            }
            out.write_all(b"}}")?;
        }
        out.write_all(b"\n]}\n")
    }
}

/// Child intervals grouped by parent span.
fn children_by_parent(spans: &[Span]) -> HashMap<SpanId, Vec<(u64, u64)>> {
    let mut children: HashMap<SpanId, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    children
}

/// A span's duration minus the part of its interval its children cover
/// (overlapping children are counted once, and only inside the parent).
fn self_time_ns(spans: &[Span], children: &HashMap<SpanId, Vec<(u64, u64)>>, id: SpanId) -> u64 {
    let span = &spans[id as usize];
    let Some(kids) = children.get(&id) else {
        return span.duration_ns();
    };
    let mut clipped: Vec<(u64, u64)> = kids
        .iter()
        .map(|&(s, e)| (s.max(span.start_ns), e.min(span.end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let (mut covered, mut reach) = (0u64, span.start_ns);
    for (s, e) in clipped {
        let from = s.max(reach);
        if e > from {
            covered += e - from;
            reach = e;
        }
    }
    span.duration_ns() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer_with(spans: &[(&'static str, u64, u64, Option<SpanId>)]) -> Tracer {
        let mut t = Tracer::new(true);
        for &(name, start_ns, end_ns, parent) in spans {
            t.push(name, start_ns, end_ns, parent, None);
        }
        t
    }

    #[test]
    fn self_time_is_duration_minus_covered_child_time() {
        // Parent 0..100; children 10..30, 20..50 (overlap), 90..120 (spills).
        let t = tracer_with(&[
            ("request", 0, 100, None),
            ("a.x", 10, 30, Some(0)),
            ("a.y", 20, 50, Some(0)),
            ("a.z", 90, 120, Some(0)),
        ]);
        let children = children_by_parent(t.spans());
        // Covered: 10..50 (40) + 90..100 (10) = 50.
        assert_eq!(self_time_ns(t.spans(), &children, 0), 50);
        assert_eq!(self_time_ns(t.spans(), &children, 1), 20);
        assert!((t.coverage("request") - 0.5).abs() < 1e-12);
    }

    #[test]
    fn coverage_is_one_when_stages_tile_the_request() {
        let t = tracer_with(&[
            ("request", 0, 90, None),
            ("g.sample", 0, 30, Some(0)),
            ("c.instantiate", 30, 60, Some(0)),
            ("c.infer", 60, 90, Some(0)),
        ]);
        assert_eq!(t.coverage("request"), 1.0);
        assert_eq!(t.coverage("missing"), 0.0);
        let rows = t.self_time_by_name();
        assert_eq!(rows.iter().map(|r| r.1).sum::<u64>(), 90);
    }

    #[test]
    fn disabled_tracer_runs_the_call_and_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("request", None, Some(1));
        assert_eq!(t.span("a.x", Some(id), Some(1), || 7), 7);
        t.end(id);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn absorb_rebases_parent_links() {
        let mut main = tracer_with(&[("request", 0, 10, None)]);
        let mut other = main.fork(1);
        other.push("request", 5, 20, None, Some(3));
        other.push("serve.submit", 5, 8, Some(0), Some(3));
        main.absorb(other);
        assert_eq!(main.spans()[2].parent, Some(1));
        assert_eq!(main.spans()[2].thread, 1);
    }

    #[test]
    fn chrome_trace_lists_every_span() {
        let t = tracer_with(&[("request", 0, 2_000, None), ("a.x", 500, 1_500, Some(0))]);
        let mut text = Vec::new();
        t.write_chrome(&mut text).unwrap();
        let parsed = crate::json::parse(std::str::from_utf8(&text).unwrap()).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("name").unwrap().as_str(), Some("a.x"));
        assert_eq!(events[1].get("dur").unwrap().as_f64(), Some(1.0));
    }
}
