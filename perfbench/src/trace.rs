//! In-memory span recorder.
//!
//! A span is a named interval with a parent; spans of one request share a
//! request id. Spans stay in memory while the workload runs and are written
//! out once at the end ([`Tracer::write_jsonl`]). A span's *self time* is
//! its duration minus the part of it that its child spans cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Id shared by every span of one request.
    pub request: u64,
    /// Index of the parent span in the same tracer, if any.
    pub parent: Option<usize>,
    /// Layer name, e.g. `watermark.detect_run`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin (0 while open).
    pub end_ns: u64,
}

/// A span recorder, owned by one thread.
#[derive(Debug, Clone)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty recorder whose timestamps count from `origin`.
    pub fn new(origin: Instant) -> Tracer {
        Tracer { origin, spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span and return its handle.
    pub fn begin(&mut self, request: u64, parent: Option<usize>, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span { request, parent, name, start_ns, end_ns: 0 });
        self.spans.len() - 1
    }

    /// Close a span opened by [`Tracer::begin`].
    pub fn end(&mut self, span: usize) {
        let now = self.now_ns();
        self.spans[span].end_ns = now;
    }

    /// Record `f` as one span and return its result.
    pub fn time<T>(
        &mut self,
        request: u64,
        parent: Option<usize>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.begin(request, parent, name);
        let out = f();
        self.end(span);
        out
    }

    /// Record a span measured elsewhere (e.g. a client round trip).
    pub fn record(&mut self, request: u64, name: &'static str, start: Instant, end: Instant) {
        let at = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
        };
        let (start_ns, end_ns) = (at(start), at(end));
        self.spans.push(Span { request, parent: None, name, start_ns, end_ns });
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of a span in milliseconds.
    pub fn duration_ms(&self, span: usize) -> f64 {
        let s = &self.spans[span];
        s.end_ns.saturating_sub(s.start_ns) as f64 / 1e6
    }

    /// Summed duration in milliseconds of the children of `span` named
    /// `name`.
    pub fn children_ms(&self, span: usize, name: &str) -> f64 {
        self.spans[span..]
            .iter()
            .filter(|s| s.parent == Some(span) && s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64 / 1e6)
            .sum()
    }

    /// Per name and request, the self time (ms) of the layer, summed over
    /// that request's spans of the name.
    pub fn self_times_ms(&self) -> BTreeMap<&'static str, BTreeMap<u64, f64>> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start_ns, span.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, BTreeMap<u64, f64>> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let covered = covered_ns(span.start_ns, span.end_ns, &mut children[i]);
            let own = span.end_ns.saturating_sub(span.start_ns).saturating_sub(covered);
            *out.entry(span.name).or_default().entry(span.request).or_default() += own as f64 / 1e6;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"request\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[start, end]`.
fn covered_ns(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(end));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(Instant::now());
        t.spans.push(Span { request: 1, parent: None, name: "root", start_ns: 0, end_ns: 100 });
        for (s, e) in [(10, 30), (20, 40), (90, 120)] {
            t.spans.push(Span {
                request: 1,
                parent: Some(0),
                name: "child",
                start_ns: s,
                end_ns: e,
            });
        }
        let times = t.self_times_ms();
        assert!((times["root"][&1] - 60e-6).abs() < 1e-12);
        assert!((times["child"][&1] - 70e-6).abs() < 1e-12);
    }
}
