//! Benchmark-side spans for the traced run.
//!
//! A span wraps one call from the benchmark into a layer's public
//! function. Spans are kept in memory and written as JSON lines when
//! the run ends; the per-layer table reports each span name's self
//! time (its duration minus the part its child spans cover).

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug)]
pub struct SpanRec {
    /// Unique id.
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// The job the span belongs to.
    pub job: u64,
    /// Layer call name, e.g. `core.connect_first_flow`.
    pub name: &'static str,
    /// Start, in microseconds since the tracer was made.
    pub start_us: f64,
    /// End, in microseconds since the tracer was made.
    pub end_us: f64,
}

/// The in-memory span store.
pub struct Tracer {
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

/// An open span; it closes when dropped.
pub struct Span<'t> {
    tracer: &'t Tracer,
    rec: SpanRec,
}

impl Span<'_> {
    /// This span's id, for children.
    pub fn id(&self) -> u64 {
        self.rec.id
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.rec.end_us = self.tracer.now_us();
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(self.rec.clone());
        }
    }
}

impl Tracer {
    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span named `name` under `parent` for `job`.
    pub fn span(&self, name: &'static str, parent: Option<u64>, job: u64) -> Span<'_> {
        Span {
            tracer: self,
            rec: SpanRec {
                id: self.next.fetch_add(1, Ordering::Relaxed),
                parent,
                job,
                name,
                start_us: self.now_us(),
                end_us: 0.0,
            },
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        job: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let _s = self.span(name, parent, job);
        f()
    }

    /// Every closed span so far.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans.lock().map(|s| s.clone()).unwrap_or_default()
    }

    /// `(calls, total µs, self µs)` per span name.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let spans = self.spans();
        let mut child_us: BTreeMap<u64, f64> = BTreeMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                *child_us.entry(p).or_default() += s.end_us - s.start_us;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for s in &spans {
            let dur = s.end_us - s.start_us;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += dur - child_us.get(&s.id).copied().unwrap_or(0.0);
        }
        out
    }

    /// Total µs of spans named `name`.
    pub fn total_us(&self, name: &str) -> f64 {
        self.summary().get(name).map_or(0.0, |e| e.1)
    }

    /// Writes every span as one JSON line to `path`.
    ///
    /// # Errors
    ///
    /// Any I/O failure creating or writing the file.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"job\":{},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.job,
                s.name,
                s.start_us,
                s.end_us
            )?;
        }
        w.flush()
    }
}

/// Where a traced run writes its spans, relative to the working
/// directory (the checkout root).
pub fn spans_path(workload: &str, seed: u64) -> std::path::PathBuf {
    std::path::PathBuf::from(format!("perfbench/out/spans-{workload}-{seed}.jsonl"))
}
