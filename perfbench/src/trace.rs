//! Spans recorded by the benchmark around each call it makes into a
//! PRIMA layer. Spans stay in memory while the run measures and are
//! written out as JSONL once it ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::report::json_str;

/// One timed call. `trace` groups the spans of one round, block or
/// request; `parent` is 0 for a root.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub trace: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder for one thread of calls.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Indices into `spans` of the spans still open, innermost last.
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; close it with
    /// [`Self::exit`].
    pub fn enter(&mut self, name: &'static str, trace: u64) {
        let parent = self.open.last().map_or(0, |&i| self.spans[i].id);
        let id = self.spans.len() as u64 + 1;
        let start_ns = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            id,
            parent,
            trace,
            name,
            start_ns,
            end_ns: start_ns,
        });
    }

    /// Closes the innermost open span and returns its duration in ns.
    pub fn exit(&mut self) -> u64 {
        let end = self.now_ns();
        let i = self.open.pop().expect("exit matches an enter");
        self.spans[i].end_ns = end;
        self.spans[i].duration_ns()
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, trace: u64, f: impl FnOnce() -> T) -> T {
        self.enter(name, trace);
        let out = f();
        self.exit();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every closed span named `name`, in order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// Self time per span name, in ns: each span's duration minus the
    /// part its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != 0 {
                child_ns[(s.parent - 1) as usize] += s.duration_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0) += s.duration_ns().saturating_sub(children);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"trace\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent,
                s.trace,
                json_str(s.name),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(Instant::now());
        t.enter("root", 1);
        t.span("child", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit();
        let spans = t.spans();
        assert_eq!(spans[1].parent, spans[0].id);
        assert_eq!(spans[0].trace, spans[1].trace);
        let selfs = t.self_times();
        assert_eq!(
            selfs["root"] + selfs["child"],
            spans[0].duration_ns(),
            "self times partition the root"
        );
        assert!(selfs["child"] >= 2_000_000);
    }
}
