//! Spans recorded by the benchmark around its calls into each layer's
//! public functions. Kept in memory, written out as JSON lines at the
//! end of a traced run. A disabled tracer records nothing, so the
//! untraced (end-to-end) runs pay no cost.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its tracer; `ROOT` has no parent.
pub type SpanId = usize;
pub const ROOT: SpanId = usize::MAX;

#[derive(Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    pub request: u64,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, origin: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn spans(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("span log lock poisoned by a panicking client")
    }

    /// Runs `f` inside a span named `name`; `f` gets the span's id so it
    /// can open children.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        if !self.enabled {
            return f(ROOT);
        }
        let start_ns = self.now_ns();
        let id = {
            let mut spans = self.spans();
            spans.push(Span { name, start_ns, end_ns: start_ns, parent, request });
            spans.len() - 1
        };
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans()[id].end_ns = end_ns;
        out
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans())
    }
}

/// Self time of every span in ns: its duration minus the part of it
/// covered by its children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<SpanId, Vec<(u64, u64)>> = HashMap::new();
    for span in spans {
        if span.parent != ROOT {
            children.entry(span.parent).or_default().push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(id, span)| {
            let mut covered = 0;
            if let Some(list) = children.get_mut(&id) {
                list.sort_unstable();
                let mut cursor = span.start_ns;
                for &(start, end) in list.iter() {
                    let (start, end) = (start.max(cursor), end.min(span.end_ns));
                    if end > start {
                        covered += end - start;
                        cursor = end;
                    }
                }
            }
            (span.end_ns - span.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Self times in ns of every span named `name`.
pub fn self_times_of(spans: &[Span], selfs: &[u64], name: &str) -> Vec<f64> {
    spans.iter().zip(selfs).filter(|(s, _)| s.name == name).map(|(_, &t)| t as f64).collect()
}

/// Writes one JSON object per span.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = if s.parent == ROOT { "null".to_string() } else { s.parent.to_string() };
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
            s.name, s.start_ns, s.end_ns, s.request
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: SpanId) -> Span {
        Span { name, start_ns, end_ns, parent, request: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("parent", 0, 100, ROOT),
            span("a", 10, 40, 0),
            span("b", 30, 60, 0),  // overlaps a: union is 10..60
            span("c", 90, 120, 0), // clipped to the parent's end
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 10, 30, 30, 30]);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.span("x", ROOT, 0, |id| id), ROOT);
        assert!(tracer.take().is_empty());
        let tracer = Tracer::new(true);
        let child = tracer.span("x", ROOT, 1, |id| tracer.span("y", id, 1, |c| c));
        let spans = tracer.take();
        assert_eq!((spans.len(), spans[child].parent), (2, 0));
    }
}
