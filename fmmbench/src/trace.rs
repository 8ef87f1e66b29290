//! In-memory spans recorded by the benchmark around each call into a
//! layer's public function, written out when the run ends.

use std::io::Write;
use std::time::Instant;

/// No parent / no level.
pub const NONE: u32 = u32::MAX;

/// One span: a call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `arena.encode_a`.
    pub name: &'static str,
    /// Recursion level (arena spans) or [`NONE`].
    pub level: u32,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NONE`].
    pub parent: u32,
    /// Operation (request) the span belongs to.
    pub request: u32,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-6
    }
}

/// Span recorder. Its own cost is measured as it runs, so the traced run
/// can report its overhead.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    request: u32,
    self_ns: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
            self_ns: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Tag the spans that follow with operation id `request`.
    pub fn set_request(&mut self, request: u32) {
        self.request = request;
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, level: u32) -> u32 {
        let start_ns = self.now_ns();
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            level,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied().unwrap_or(NONE),
            request: self.request,
        });
        self.stack.push(id);
        self.self_ns += self.now_ns() - start_ns;
        id
    }

    /// Close span `id` (the innermost open one).
    pub fn end(&mut self, id: u32) {
        let end_ns = self.now_ns();
        debug_assert_eq!(self.stack.last(), Some(&id), "spans close innermost first");
        self.stack.pop();
        self.spans[id as usize].end_ns = end_ns;
        self.self_ns += self.now_ns() - end_ns;
    }

    /// Record an already-timed interval as a closed span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let t = Instant::now();
        let at = |i: Instant| i.saturating_duration_since(self.t0).as_nanos() as u64;
        self.spans.push(Span {
            name,
            level: NONE,
            start_ns: at(start),
            end_ns: at(end),
            parent: self.stack.last().copied().unwrap_or(NONE),
            request: self.request,
        });
        self.self_ns += t.elapsed().as_nanos() as u64;
    }

    /// Total milliseconds of spans named `name` (at `level`, unless
    /// `level` is [`NONE`]).
    pub fn total_ms(&self, name: &str, level: u32) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && (level == NONE || s.level == level))
            .map(Span::ms)
            .sum()
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Time the tracer itself spent recording (s).
    pub fn self_secs(&self) -> f64 {
        self.self_ns as f64 * 1e-9
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: u32| {
                if v == NONE {
                    "null".to_string()
                } else {
                    v.to_string()
                }
            };
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"level\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.name,
                opt(s.level),
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                s.request
            )?;
        }
        w.flush()
    }
}
