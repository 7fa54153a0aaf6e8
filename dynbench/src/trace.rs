//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is named `layer.call` (`driver.query`, `session.absorb`, …),
//! records its start, its end, the span that caused it and the request it
//! belongs to. Spans stay in memory while the run measures and are written
//! out as JSON lines when it ends. A layer's self time is its spans'
//! duration minus the part of that interval its child spans cover.
//!
//! A disabled tracer records nothing: `open` returns `None` and `close`
//! ignores it, so untraced runs pay one branch per call site.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use dynsum_service::json::Json;

/// Index of an open span, `None` when tracing is off.
pub type SpanId = Option<usize>;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.call`.
    pub name: &'static str,
    /// Request the span serves; 0 for set-up work.
    pub request: u64,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
}

impl Span {
    /// The layer: the name up to its first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// `true` for a traced run.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent`.
    pub fn open(&mut self, name: &'static str, request: u64, parent: SpanId) -> SpanId {
        if !self.enabled {
            return None;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            request,
            parent,
            start,
            end: start,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`open`](Self::open).
    pub fn close(&mut self, id: SpanId) {
        if let Some(i) = id {
            self.spans[i].end = self.now();
        }
    }

    /// Moves a span under `parent` and into `request`: a daemon `step`
    /// learns whose request it served only once it returns.
    pub fn adopt(&mut self, id: SpanId, parent: SpanId, request: u64) {
        if let Some(i) = id {
            self.spans[i].parent = parent;
            self.spans[i].request = request;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: SpanId,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, request, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the first `limit` spans as JSON lines, one span per line.
    pub fn write_jsonl(&self, path: &Path, limit: usize) -> std::io::Result<()> {
        let self_ns = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, own)) in self.spans.iter().zip(&self_ns).enumerate().take(limit) {
            let line = Json::Obj(vec![
                ("id".to_owned(), Json::num(i as u64)),
                ("name".to_owned(), Json::str(s.name)),
                ("request".to_owned(), Json::num(s.request)),
                (
                    "parent".to_owned(),
                    s.parent.map_or(Json::Null, |p| Json::num(p as u64)),
                ),
                ("start_ns".to_owned(), Json::num(s.start)),
                ("end_ns".to_owned(), Json::num(s.end)),
                ("self_ns".to_owned(), Json::num(*own)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to its own interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// Per-key totals — span count and summed self time in ns — of the
/// spans `keep` selects by index, keyed by `key` (the span name, or its
/// layer).
pub fn totals(
    spans: &[Span],
    keep: impl Fn(usize) -> bool,
    key: impl Fn(&Span) -> &'static str,
) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (i, (s, own)) in spans.iter().zip(self_times(spans)).enumerate() {
        if keep(i) {
            let e = out.entry(key(s)).or_default();
            e.0 += 1;
            e.1 += own;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            request: 1,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        // request [0,100): batch [10,90) with queries [20,40) and
        // [50,60) and an absorb [60,85); a replay span [95,120) outside.
        let spans = vec![
            span("client.request", None, 0, 100),
            span("session.run_batch", Some(0), 10, 90),
            span("driver.query", Some(1), 20, 40),
            span("driver.query", Some(1), 50, 60),
            span("session.absorb", Some(1), 60, 85),
            span("proto.parse", None, 95, 120),
        ];
        assert_eq!(self_times(&spans), vec![20, 25, 20, 10, 25, 25]);
        let by_name = totals(&spans, |_| true, |s| s.name);
        assert_eq!(by_name["driver.query"], (2, 30));
        assert_eq!(by_name["session.run_batch"], (1, 25));
        let by_layer = totals(&spans, |i| i >= 1, Span::layer);
        assert_eq!(by_layer["session"], (2, 50));
        assert_eq!(by_layer["driver"], (2, 30));
        assert!(!by_layer.contains_key("client"));
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("a.root", None, 0, 100),
            span("b.x", Some(0), 10, 50),
            span("b.y", Some(0), 30, 70),
            span("b.z", Some(0), 90, 130),
        ];
        // Covered: [10,70) and [90,100) = 70 of 100.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("driver.query", 1, None);
        assert_eq!(id, None);
        t.close(id);
        assert_eq!(t.span("pag.parse", 0, None, || 7), 7);
        assert!(t.spans().is_empty());
    }
}
