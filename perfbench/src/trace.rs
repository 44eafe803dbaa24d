//! In-memory spans recorded around the benchmark's calls into each
//! layer's public functions.
//!
//! A span has a name (`<layer>.<call>`), a start and an end relative to
//! the run's epoch, the span open around it (its parent), and the id of
//! the operation it belongs to. Spans are kept in memory and written
//! out when the run ends. With tracing off, `begin` and `end` are one
//! branch each.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

const NONE: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    op: u64,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Handle of an open span (or of nothing, with tracing off).
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer { on, epoch, spans: Vec::new(), open: Vec::new() }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, op: u64) -> SpanId {
        if !self.on {
            return SpanId(NONE);
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NONE);
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span { name, op, parent, start_ns, end_ns: start_ns });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `id`, and any span left open inside it by an early return.
    pub fn end(&mut self, id: SpanId) {
        if id.0 == NONE {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        while let Some(top) = self.open.pop() {
            self.spans[top as usize].end_ns = now;
            if top == id.0 {
                break;
            }
        }
    }

    /// Appends another tracer's spans (a client thread's), keeping their
    /// parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NONE {
                s.parent += base;
            }
            s
        }));
    }

    fn dur(s: &Span) -> u64 {
        s.end_ns - s.start_ns
    }

    /// Durations of the spans named `name`, nanoseconds.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| Self::dur(s) as f64).collect()
    }

    /// Self time per layer: each span's duration minus its children's,
    /// summed by layer (the span name before the first `.`).
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                child_ns[s.parent as usize] += Self::dur(s);
            }
        }
        let mut by_layer = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *by_layer.entry(layer).or_insert(0.0) += Self::dur(s).saturating_sub(children) as f64;
        }
        by_layer
    }

    /// Writes every span as TSV: id, parent, op, name, start, end (ns).
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\top\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NONE { "-".to_string() } else { s.parent.to_string() };
            writeln!(out, "{i}\t{parent}\t{}\t{}\t{}\t{}", s.op, s.name, s.start_ns, s.end_ns)?;
        }
        out.flush()
    }
}

/// Writes `tracer`'s spans to `.bench_out/spans-<workload>-<seed>.tsv`,
/// reporting (not failing on) an I/O error.
pub fn dump(tracer: &Tracer, workload: &str, seed: u64) {
    let path = crate::out_dir().join(format!("spans-{workload}-{seed}.tsv"));
    if let Err(e) = tracer.write(&path) {
        eprintln!("cannot write spans to {}: {e}", path.display());
    }
}
