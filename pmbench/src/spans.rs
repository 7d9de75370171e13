//! In-memory span recorder for the traced phase.
//!
//! A span is `{name, start, end, parent, request}`; a request is one
//! replay or one session. Spans are batch-granular (one per 4096 events
//! per layer), kept in memory, and written out once when the run ends.
//! A layer's self time is its spans' durations minus the part their
//! child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Handle to an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
}

/// The span store.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    next_request: u64,
}

impl Tracer {
    /// An empty store; span times count from now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            next_request: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens the root span of a new request.
    pub fn request(&mut self, name: &'static str) -> SpanId {
        self.next_request += 1;
        let request = self.next_request;
        self.push(name, None, request)
    }

    /// Opens a child span of `parent`, in the parent's request.
    pub fn child(&mut self, parent: SpanId, name: &'static str) -> SpanId {
        let request = self.spans[parent.0].request;
        self.push(name, Some(parent.0), request)
    }

    fn push(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        SpanId(self.spans.len() - 1)
    }

    /// Closes a span.
    pub fn end(&mut self, id: SpanId) {
        self.spans[id.0].end_ns = self.now_ns();
    }

    /// Runs `f` inside a child span of `parent`.
    pub fn time<T>(&mut self, parent: SpanId, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.child(parent, name);
        let out = f();
        self.end(id);
        out
    }

    /// A position in the store: spans opened after it are "from" it.
    /// Requests opened after a mark keep all their spans after it.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Total duration of the spans with this name opened since `mark`,
    /// in nanoseconds.
    pub fn total_ns_from(&self, mark: usize, name: &str) -> u64 {
        self.spans[mark..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Self time per span name over the spans opened since `mark`:
    /// duration minus the children's durations.
    pub fn self_ns_from(&self, mark: usize) -> BTreeMap<&'static str, u64> {
        let spans = &self.spans[mark..];
        let mut children = vec![0u64; spans.len()];
        for span in spans {
            if let Some(p) = span.parent {
                children[p - mark] += span.end_ns - span.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (span, covered) in spans.iter().zip(children) {
            let own = (span.end_ns - span.start_ns).saturating_sub(covered);
            *out.entry(span.name).or_insert(0) += own;
        }
        out
    }

    /// Writes every span as JSON (`pmbench-spans-v1`).
    ///
    /// # Errors
    ///
    /// The file write error.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96 + 64);
        out.push_str("{\"schema\":\"pmbench-spans-v1\",\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                if i > 0 { ",\n" } else { "" },
                s.name,
                s.start_ns,
                s.end_ns,
                s.request
            );
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        let first = t.request("first");
        t.end(first);
        let mark = t.mark();
        let root = t.request("root");
        t.time(root, "child", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.end(root);
        let own = t.self_ns_from(mark);
        assert!(own["child"] >= 5_000_000);
        assert!(!own.contains_key("first"));
        assert_eq!(own["root"] + own["child"], t.total_ns_from(mark, "root"));
    }
}
