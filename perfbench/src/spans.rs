//! Spans recorded from the benchmark's own code around each call into a
//! layer's public API. The program itself is not instrumented: a span
//! covers one call as seen from outside.
//!
//! Spans stay in memory (the first [`KEEP`] in full; every span feeds the
//! running per-layer self times and duration lists) and are written out
//! when the run ends.

use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Spans kept verbatim for the span file; later spans are counted only.
const KEEP: usize = 50_000;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub run: u64,
    pub id: u64,
    pub parent: Option<u64>,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Default)]
struct Inner {
    kept: Vec<Span>,
    dropped: u64,
    /// Time covered by already-closed children, by parent id.
    child_ns: HashMap<u64, u64>,
    self_ns: BTreeMap<&'static str, u64>,
    durations: BTreeMap<(&'static str, &'static str), Vec<u64>>,
}

/// Collects spans from every thread of one benchmark run.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    run: AtomicU64,
    inner: Mutex<Inner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            run: AtomicU64::new(0),
            inner: Mutex::new(Inner::default()),
        }
    }
}

impl Tracer {
    /// Tags the spans recorded from now on with run id `run` (one run id
    /// per measured iteration).
    pub fn set_run(&self, run: u64) {
        self.run.store(run, Ordering::Relaxed);
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    fn record(
        &self,
        id: u64,
        parent: Option<u64>,
        layer: &'static str,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            run: self.run.load(Ordering::Relaxed),
            id,
            parent,
            layer,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        let dur = span.end_ns - span.start_ns;
        let mut inner = self.inner.lock().expect("span collector poisoned");
        let covered = inner.child_ns.remove(&id).unwrap_or(0);
        *inner.self_ns.entry(layer).or_default() += dur.saturating_sub(covered);
        if let Some(p) = parent {
            *inner.child_ns.entry(p).or_default() += dur;
        }
        inner.durations.entry((layer, name)).or_default().push(dur);
        if inner.kept.len() < KEEP {
            inner.kept.push(span);
        } else {
            inner.dropped += 1;
        }
    }

    /// Self time per layer (span time not covered by child spans), ns.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        self.inner
            .lock()
            .expect("span collector poisoned")
            .self_ns
            .clone()
    }

    /// Durations (ns) of every span named `layer`/`name`.
    pub fn durations(&self, layer: &'static str, name: &'static str) -> Vec<u64> {
        let inner = self.inner.lock().expect("span collector poisoned");
        inner
            .durations
            .get(&(layer, name))
            .cloned()
            .unwrap_or_default()
    }

    /// Total number of spans recorded.
    pub fn recorded(&self) -> u64 {
        let inner = self.inner.lock().expect("span collector poisoned");
        inner.kept.len() as u64 + inner.dropped
    }

    /// Writes the kept spans as JSON lines, one span per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let inner = self.inner.lock().expect("span collector poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &inner.kept {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"run\":{},\"id\":{},\"parent\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.run, s.id, parent, s.layer, s.name, s.start_ns, s.end_ns
            )?;
        }
        writeln!(out, "{{\"dropped\":{}}}", inner.dropped)?;
        out.flush()
    }
}

/// Where a call sits in the span tree: the collector (absent when the
/// run is untraced) and the enclosing span.
#[derive(Clone, Copy)]
pub struct Ctx<'a> {
    tracer: Option<&'a Tracer>,
    parent: Option<u64>,
}

impl<'a> Ctx<'a> {
    /// An untraced context: `span` just calls its closure.
    pub fn off() -> Self {
        Ctx {
            tracer: None,
            parent: None,
        }
    }

    pub fn on(tracer: &'a Tracer) -> Self {
        Ctx {
            tracer: Some(tracer),
            parent: None,
        }
    }

    pub fn is_on(&self) -> bool {
        self.tracer.is_some()
    }

    /// Runs `f` inside a span `layer`/`name`; `f` gets the context for
    /// spans nested in this one.
    pub fn span<R>(
        self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(Ctx<'a>) -> R,
    ) -> R {
        match self.tracer {
            None => f(self),
            Some(t) => {
                let id = t.next_id.fetch_add(1, Ordering::Relaxed);
                let start = Instant::now();
                let r = f(Ctx {
                    tracer: Some(t),
                    parent: Some(id),
                });
                t.record(id, self.parent, layer, name, start, Instant::now());
                r
            }
        }
    }

    /// Records a leaf span whose name is known only after the call (a
    /// touch is a hit or a fault).
    pub fn leaf(self, layer: &'static str, name: &'static str, start: Instant, end: Instant) {
        if let Some(t) = self.tracer {
            let id = t.next_id.fetch_add(1, Ordering::Relaxed);
            t.record(id, self.parent, layer, name, start, end);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::default();
        Ctx::on(&t).span("outer", "a", |c| {
            c.span("inner", "b", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let self_ns = t.self_ns();
        assert!(self_ns["inner"] >= 20_000_000);
        assert!(self_ns["outer"] < self_ns["inner"]);
        assert_eq!(t.recorded(), 2);
        assert_eq!(t.durations("inner", "b").len(), 1);
    }

    #[test]
    fn off_context_records_nothing() {
        let t = Tracer::default();
        let v = Ctx::off().span("x", "y", |c| {
            assert!(!c.is_on());
            7
        });
        assert_eq!(v, 7);
        assert_eq!(t.recorded(), 0);
    }
}
